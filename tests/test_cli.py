import json

import pytest

from densecode import Transcript, bell, g_to_s_map
from densecode.bellbasis import BellLabel
from densecode.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasisCommand:
    def test_two_pair_table_reproduces_groups(self, capsys):
        code, out, _ = run(capsys, "basis", "--n", "2")
        assert code == 0
        assert "Group 1" in out and "Group 4" in out
        assert "g1   (message  0): +1/2|0000> +1/2|0101> +1/2|1010> +1/2|1111>" in out
        assert "g16  (message 15): +1/2|0011> -1/2|0110> -1/2|1001> +1/2|1100>" in out

    def test_one_pair_table_shows_bell_states(self, capsys):
        code, out, _ = run(capsys, "basis", "--n", "1")
        assert code == 0
        for name in ("Phi+", "Phi-", "Psi+", "Psi-"):
            assert name in out
        assert "+1/√2|00> +1/√2|11>" in out

    def test_json_emission(self, capsys):
        code, out, _ = run(capsys, "basis", "--n", "1", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["N"] == 1
        assert len(data["states"]) == 4
        phi_plus = data["states"][0]["state"]
        assert phi_plus["num_qubits"] == 2
        assert phi_plus["amplitudes"][0][0] == pytest.approx(2**-0.5)

    def test_emission_cap(self, capsys):
        code, _, err = run(capsys, "basis", "--n", "5")
        assert code == 2
        assert "error" in err


class TestRoundtripCommand:
    @pytest.mark.parametrize("n,phrase", [(1, "2 bits via 1 qubits"), (2, "4 bits via 2 qubits"), (3, "6 bits via 3 qubits")])
    def test_summary_lines(self, capsys, n, phrase):
        code, out, _ = run(capsys, "roundtrip", "--n", str(n))
        assert code == 0
        assert phrase in out
        assert "0 failures" in out

    def test_range_guard(self, capsys):
        code, _, err = run(capsys, "roundtrip", "--n", "9")
        assert code == 2


class TestCapacityCommand:
    def test_g1(self, capsys):
        code, out, _ = run(capsys, "capacity", "g1")
        assert code == 0
        data = json.loads(out)
        assert data == {"d_A": 4, "S_B": 2.0, "S_AB": 0.0, "chi": 4.0, "holevo": 4.0}

    def test_ghz4(self, capsys):
        code, out, _ = run(capsys, "capacity", "ghz4")
        assert code == 0
        assert json.loads(out)["chi"] == pytest.approx(3.0)

    def test_s0_selector(self, capsys):
        code, out, _ = run(capsys, "capacity", "s0:1")
        assert code == 0
        assert json.loads(out)["chi"] == pytest.approx(2.0)

    def test_s0_eight_pairs_without_a_dense_density_matrix(self, capsys):
        # |s0><s0| on 16 qubits would be a 64 GiB matrix; the Schmidt path needs 1 MiB
        code, out, _ = run(capsys, "capacity", "s0:8")
        assert code == 0
        data = json.loads(out)
        assert data["S_B"] == 8.0
        assert data["S_AB"] == 0.0
        assert data["chi"] == 16.0

    def test_file_selector(self, capsys, tmp_path):
        path = tmp_path / "phiplus.json"
        path.write_text(json.dumps(bell(BellLabel.PHI_PLUS).to_dict()))
        code, out, _ = run(capsys, "capacity", f"file:{path}", "--d-a", "2")
        assert code == 0
        data = json.loads(out)
        assert data["S_B"] == pytest.approx(1.0)
        assert data["chi"] == pytest.approx(2.0)

    def test_unreadable_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "capacity", f"file:{tmp_path}/missing.json")
        assert code == 2

    def test_malformed_state(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"num_qubits": 2, "amplitudes": [[1, 0], [1, 0], [0, 0], [0, 0]]}')
        code, _, err = run(capsys, "capacity", f"file:{path}")
        assert code == 2
        # the qubit count must be a JSON integer: not a bool, a float or a string
        for count in ("true", "1.9", "1.0", '"1"'):
            path.write_text(f'{{"num_qubits": {count}, "amplitudes": [[1, 0], [0, 0]]}}')
            code, out, err = run(capsys, "capacity", f"file:{path}", "--d-a", "2")
            assert code == 2
            assert out == ""
            assert err.startswith(f"error: malformed state in {path}: num_qubits ")

    def test_non_finite_state(self, capsys, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"num_qubits": 2, "amplitudes": [[NaN, 0], [0, 0], [0, 0], [0, 0]]}')
        code, out, err = run(capsys, "capacity", f"file:{path}")
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: malformed state in {path}: ")
        assert "finite" in err

    def test_unknown_selector(self, capsys):
        code, _, _ = run(capsys, "capacity", "nonsense")
        assert code == 2


class TestFactorizeCommand:
    def test_json_rows(self, capsys):
        code, out, _ = run(capsys, "factorize", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 16
        by_index = {row["g_index"]: row for row in rows}
        assert (by_index[1]["first"], by_index[1]["second"]) == ("Phi+", "Phi+")
        assert (by_index[16]["first"], by_index[16]["second"]) == ("Psi-", "Psi-")
        assert all(row["max_deviation"] <= 1e-10 for row in rows)

    def test_table_rows(self, capsys):
        code, out, _ = run(capsys, "factorize")
        assert code == 0
        assert "g1   = |Phi+>|Phi+>" in out
        assert "g14  = |Psi->|Psi+>" in out
        assert "verified" in out


class TestSessionCommand:
    def test_random_messages(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        code, _, _ = run(capsys, "session", "--n", "2", "--random", "10", "--seed", "7",
                         "--out", str(path))
        assert code == 0
        transcript = Transcript.from_json(path.read_text())
        assert len(transcript.steps) == 10
        assert all(step.success for step in transcript.steps)

    def test_explicit_messages_echo_back(self, capsys):
        code, out, _ = run(capsys, "session", "--n", "2", *[str(m) for m in range(16)])
        assert code == 0
        data = json.loads(out)
        assert [s["outcome"] for s in data["steps"]] == list(range(16))

    def test_byte_identical_reruns(self, capsys, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert run(capsys, "session", "--n", "2", "--random", "12", "--seed", "99",
                   "--out", str(first))[0] == 0
        assert run(capsys, "session", "--n", "2", "--random", "12", "--seed", "99",
                   "--out", str(second))[0] == 0
        assert first.read_bytes() == second.read_bytes()

    def test_invalid_message(self, capsys):
        code, _, err = run(capsys, "session", "--n", "1", "9")
        assert code == 2

    def test_requires_messages_or_random(self, capsys):
        code, _, _ = run(capsys, "session", "--n", "2")
        assert code == 2
        code, _, _ = run(capsys, "session", "--n", "2", "3", "--random", "2")
        assert code == 2

    def test_transcript_roundtrip_through_json(self, capsys):
        code, out, _ = run(capsys, "session", "--n", "1", "0", "3", "--seed", "5")
        assert code == 0
        transcript = Transcript.from_json(out)
        assert transcript.to_json() == out


class TestGhzCompareCommand:
    def test_report(self, capsys):
        code, out, _ = run(capsys, "ghz-compare")
        assert code == 0
        data = json.loads(out)
        assert data == {"g1": {"orbit": 16, "chi": 4.0}, "ghz": {"orbit": 8, "chi": 3.0}}


class TestCommonBehavior:
    def test_usage_error_exit_code(self, capsys):
        assert run(capsys, "no-such-command")[0] == 2
        assert run(capsys)[0] == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["roundtrip", "--n", "1", "--format", "json"],
            ["capacity", "g1", "--format", "table"],
            ["session", "--n", "1", "0", "--format", "json"],
            ["ghz-compare", "--format", "json"],
            ["basis", "--n", "1", "--seed", "1"],
            ["roundtrip", "--n", "1", "--seed", "1"],
            ["capacity", "g1", "--seed", "1"],
            ["factorize", "--seed", "1"],
            ["ghz-compare", "--seed", "1"],
        ],
    )
    def test_flags_a_subcommand_ignores_are_rejected(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "unrecognized arguments" in err

    def test_basis_message_labels_follow_computed_mapping(self, capsys):
        _, out, _ = run(capsys, "basis", "--n", "2", "--format", "json")
        data = json.loads(out)
        expected = g_to_s_map()
        for record in data["states"]:
            i = int(record["label"][1:])
            assert record["index"] == expected[i - 1]
