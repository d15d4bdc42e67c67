"""Smoke tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.core.framing import FRAME_HEADER


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 0
    return captured.out


class TestCli:
    def test_datasets(self, capsys):
        out = run(capsys, "datasets")
        assert "Diseasome" in out and "3,000,673,968" in out

    def test_discover_dataset_input(self, capsys):
        out = run(
            capsys, "discover", "dataset:Countries", "--scale", "0.1",
            "-s", "5", "-n", "3",
        )
        assert "pertinent" in out and "⊆" in out

    def test_discover_storage_variants_identical(self, capsys):
        outputs = {}
        for storage in ("strings", "encoded"):
            out = run(
                capsys, "discover", "dataset:Countries", "--scale", "0.1",
                "-s", "5", "-n", "10", "--storage", storage,
            )
            # drop the header line, whose timings differ between runs
            outputs[storage] = out.splitlines()[1:]
        assert outputs["encoded"] == outputs["strings"]
        assert outputs["encoded"]

    def test_discover_variant_de(self, capsys):
        out = run(
            capsys, "discover", "dataset:Countries", "--scale", "0.1",
            "-s", "5", "--variant", "de", "-n", "2",
        )
        assert "RDFind-DE" in out

    def test_discover_predicates_scope(self, capsys):
        out = run(
            capsys, "discover", "dataset:Countries", "--scale", "0.1",
            "-s", "5", "--scope", "predicates", "-n", "2",
        )
        assert "pertinent" in out

    def test_generate_then_discover_file(self, capsys, tmp_path):
        path = tmp_path / "tiny.nt"
        out = run(capsys, "generate", "Countries", "-o", str(path), "--scale", "0.05")
        assert "wrote" in out
        out = run(capsys, "discover", str(path), "-s", "3", "-n", "2")
        assert "pertinent" in out

    def test_funnel(self, capsys):
        out = run(capsys, "funnel", "dataset:Countries", "--scale", "0.05", "-s", "3")
        assert "all CIND candidates" in out

    def test_histogram(self, capsys):
        out = run(capsys, "histogram", "dataset:Countries", "--scale", "0.05")
        assert "frequency" in out

    def test_ontology(self, capsys):
        out = run(
            capsys, "ontology", "dataset:Countries", "--scale", "0.3", "-s", "5"
        )
        assert "ontology hints" in out

    def test_facts(self, capsys):
        out = run(capsys, "facts", "dataset:DB14-MPCE", "--scale", "0.05", "-s", "5")
        assert "knowledge facts" in out

    def test_discover_json_export(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        out = run(
            capsys, "discover", "dataset:Countries", "--scale", "0.1",
            "-s", "5", "-n", "1", "-o", str(path),
        )
        assert "full result written" in out
        import json

        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["format"] == "rdfind-result"
        assert payload["cinds"]

    def test_advise(self, capsys):
        out = run(capsys, "advise", "dataset:Countries", "--scale", "0.2")
        assert "query minimization" in out and "broad captures" in out

    def test_rank(self, capsys):
        out = run(
            capsys, "rank", "dataset:Countries", "--scale", "0.2",
            "-s", "5", "-n", "3",
        )
        assert "ranked" in out and "score=" in out

    def test_inds(self, capsys):
        out = run(capsys, "inds", "dataset:Countries", "--scale", "0.2")
        assert "plain INDs" in out

    def test_cross(self, capsys, tmp_path):
        left = tmp_path / "a.nt"
        right = tmp_path / "b.nt"
        left.write_text(
            "".join(f"<c{i}> <capital> <city{i}> .\n" for i in range(4)),
            encoding="utf-8",
        )
        right.write_text(
            "".join(f"<city{i}> <rdf:type> <City> .\n" for i in range(6)),
            encoding="utf-8",
        )
        out = run(capsys, "cross", str(left), str(right), "-s", "4")
        assert "cross-dataset CINDs" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["no-such-command"])

    def test_bad_scope_rejected(self):
        with pytest.raises(SystemExit):
            main(["discover", "dataset:Countries", "--scope", "bogus"])


class TestMalformedInput:
    """Typed input errors end the command with one stderr line, exit 2."""

    def test_unterminated_literal(self, capsys, tmp_path):
        path = tmp_path / "bad.nt"
        path.write_text('<a> <b> <c> .\n<a> <b> "never closed .\n', encoding="utf-8")
        assert main(["discover", str(path), "-s", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"rdfind: error: {path}: line 2: unterminated literal: "
            "'<a> <b> \"never closed .'\n"
        )

    def test_corrupt_snapshot(self, capsys, tmp_path):
        path = tmp_path / "bad.snap"
        path.write_bytes(b"not a snapshot at all")
        assert main(["discover", str(path), "-s", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"rdfind: error: {path}: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_missing_snapshot_via_snapshot_info(self, capsys, tmp_path):
        path = tmp_path / "absent.snap"
        assert main(["snapshot", "info", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"rdfind: error: {path}: ")

    def test_malformed_turtle(self, capsys, tmp_path):
        path = tmp_path / "bad.ttl"
        path.write_text(
            "@prefix ex: <http://example.org/> .\nex:a ex:b .\n", encoding="utf-8"
        )
        assert main(["discover", str(path), "-s", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"rdfind: error: {path}: ")
        assert "(line 2)" in captured.err
        assert captured.err.count("\n") == 1

    def test_corrupt_changelog_via_stream(self, capsys, tmp_path):
        data = tmp_path / "initial.nt"
        data.write_text("<a> <b> <c> .\n<a> <b> <d> .\n", encoding="utf-8")
        state = tmp_path / "state"
        assert main(
            ["stream", str(state), "-s", "1", "--init", str(data), "--no-fsync"]
        ) == 0
        (segment,) = (state / "changelog").glob("*.open")
        raw = bytearray(segment.read_bytes())
        raw[FRAME_HEADER.size + 2] ^= 0xFF  # inside record 1's payload
        segment.write_bytes(bytes(raw))
        capsys.readouterr()
        assert main(["stream", str(state), "-s", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"rdfind: error: {segment}: ")
        assert captured.err.count("\n") == 1

    def test_resume_against_other_config(self, capsys, tmp_path, monkeypatch):
        # main() publishes the checkpoint flags as RDFIND_* defaults;
        # registering the variables first makes monkeypatch restore them.
        monkeypatch.setenv("RDFIND_CHECKPOINT", "off")
        monkeypatch.setenv("RDFIND_CHECKPOINT_DIR", "")
        monkeypatch.setenv("RDFIND_RESUME", "")
        base = ["discover", "dataset:Countries", "--scale", "0.1", "-n", "0"]
        ckpt = ["--checkpoint", "phase", "--checkpoint-dir", str(tmp_path / "ckpt")]
        assert main([*base, "-s", "5", *ckpt]) == 0
        capsys.readouterr()
        assert main([*base, "-s", "6", *ckpt, "--resume"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "rdfind: error: checkpoint manifest belongs to a different job"
        )
        assert captured.err.count("\n") == 1
