import json
import os
import pathlib
import stat
import subprocess
import sys
import threading

import pytest

from netsynth.cli import _parser, run
from netsynth.synthesis import SynthesisConfig

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def fx(name):
    return str(FIXTURES / name)


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


class TestValidate:
    def test_good_file(self, capsys):
        code, payload = run_json(capsys, ["validate", fx("fig1.lts")])
        assert code == 0
        assert payload["deterministic"] and payload["reachable"]

    def test_self_loops_reported(self, capsys):
        code, payload = run_json(capsys, ["validate", fx("case6a.lts")])
        assert code == 0
        assert payload["self_loop_labels"] == ["c"]

    def test_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.lts"
        bad.write_text("initial s0\ns0 a s1\ns0 a s2\n")
        code, payload = run_json(capsys, ["validate", str(bad)])
        assert code == 2
        assert not payload["deterministic"]

    def test_missing_file(self, capsys):
        assert run(["validate", fx("nope.lts")]) == 2

    def test_syntax_error(self, tmp_path):
        bad = tmp_path / "bad.lts"
        bad.write_text("initial s0\ngarbage line here now\n")
        assert run(["validate", str(bad)]) == 2


class TestRelations:
    def test_fig1_table(self, capsys):
        code, payload = run_json(capsys, ["relations", fx("fig1.lts")])
        assert code == 0
        pairs = {frozenset((p["a"], p["b"])): p for p in payload["pairs"]}
        ef = pairs[frozenset("ef")]
        assert ef["kind"] == "equiv" and ef["case"] == 3
        ab = pairs[frozenset("ab")]
        assert ab["kind"] in ("a_gtr_b", "b_gtr_a") and ab["case"] == 5
        others = [p for k, p in pairs.items()
                  if k not in (frozenset("ef"), frozenset("ab"),
                               frozenset("cd"))]
        assert all(p["kind"] == "interleave" for p in others)

    def test_genx_contradiction(self, capsys):
        code, payload = run_json(capsys, ["relations", fx("genx.lts")])
        assert code == 1
        assert payload["contradictions"]
        assert payload["contradictions"][0]["rule"] == \
            "deactivating-interleave"

    def test_graph_entries(self, capsys):
        code, payload = run_json(capsys, ["relations", fx("brac7.lts")])
        assert code == 0
        entries = {(g["a"], g["b"]): g for g in payload["graph"]}
        doi = [g for g in payload["graph"] if g["edge"] == "doi"]
        assert {(g["below"], g["above"]) for g in doi} == \
            {("c", "b"), ("c", "d"), ("c", "e")}


class TestSynth:
    def test_fig1_brac(self, tmp_path, capsys):
        out = tmp_path / "out.pn"
        report = tmp_path / "r.json"
        code = run(["synth", fx("fig1.lts"), "--class", "brac",
                    "-o", str(out), "--report", str(report)])
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["outcome"] == "success"
        assert payload["verification"]["isomorphic"]
        assert "BRAC" in payload["verification"]["classes"]
        assert out.exists()

    def test_genx_fails_with_witness(self, tmp_path, capsys):
        report = tmp_path / "r.json"
        code = run(["synth", fx("genx.lts"), "--class", "wpi",
                    "--report", str(report)])
        assert code == 1
        payload = json.loads(report.read_text())
        assert payload["witness"]["kind"] == "contradiction"
        err = capsys.readouterr().err
        assert "impossible" in err

    def test_dot_output(self, tmp_path):
        dot = tmp_path / "net.dot"
        code = run(["synth", fx("case6a.lts"), "--class", "wpi",
                    "-o", str(tmp_path / "n.pn"), "--dot", str(dot)])
        assert code == 0
        assert dot.read_text().startswith("digraph")

    def test_byte_identical_reports(self, tmp_path):
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for r in (r1, r2):
            assert run(["synth", fx("brac7.lts"), "--class", "brac",
                        "-o", str(tmp_path / "n.pn"),
                        "--report", str(r)]) == 0
        assert r1.read_bytes() == r2.read_bytes()

    def test_invalid_lts_exit_2(self, tmp_path):
        bad = tmp_path / "bad.lts"
        bad.write_text("initial s0\ns0 a s1\ns0 a s2\n")
        assert run(["synth", str(bad), "--class", "wpi"]) == 2

    @pytest.mark.parametrize("target", ["wpi", "brac"])
    def test_validates_once(self, tmp_path, monkeypatch, target):
        # the pipeline validates its input, so the command does not
        import netsynth.cli
        import netsynth.synthesis
        calls = []
        real = netsynth.synthesis.validate

        def validate(lts):
            calls.append(lts)
            return real(lts)
        for module in (netsynth.cli, netsynth.synthesis):
            monkeypatch.setattr(module, "validate", validate)
        assert run(["synth", fx("fig1.lts"), "--class", target,
                    "-o", str(tmp_path / "out.pn")]) == 0
        assert len(calls) == 1

    def test_unknown_class_exit_2(self):
        assert run(["synth", fx("fig1.lts"), "--class", "nope"]) == 2

    @pytest.mark.parametrize("argv", [
        ["synth", fx("fig1.lts"), "--class", "brac"],
        ["verify", fx("fig1-net.pn"), fx("fig1.lts"), "--class", "brac"],
    ], ids=["synth", "verify"])
    def test_rg_cap_option_removed(self, argv):
        # verification is bounded by the input's state count instead
        assert run(argv + ["--rg-cap", "5"]) == 2

    @pytest.mark.parametrize("error", [RuntimeError("pivot limit exceeded"),
                                       AssertionError("invariant broken"),
                                       KeyError((2, 5)),
                                       ValueError("non-integral value in "
                                                  "column 3: 1/2")])
    def test_internal_error_exit_4(self, monkeypatch, capsys, error):
        # solver limits and broken invariants must not read as a verdict
        def broken(lts, cfg):
            raise error
        monkeypatch.setattr("netsynth.cli.synthesize_wpi", broken)
        assert run(["synth", fx("fig1.lts"), "--class", "wpi"]) == 4
        assert capsys.readouterr().err == \
            f"internal error: {type(error).__name__}: {error}\n"

    def test_solver_cap_exit_4_without_witness(self, tmp_path, monkeypatch,
                                               capsys):
        # a search stopped at the pivot limit is no proof that a region is
        # missing
        def limit(system):
            raise RuntimeError("pivot limit exceeded")
        monkeypatch.setattr("netsynth.synthesis.solve_integer", limit)
        report = tmp_path / "r.json"
        assert run(["synth", fx("fig1.lts"), "--class", "brac",
                    "--report", str(report)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            "internal error: RuntimeError: pivot limit exceeded\n"
        assert not report.exists()

    @pytest.mark.parametrize("name, cls, code", [("fig1", "brac", 0),
                                                 ("case6a", "wpi", 0),
                                                 ("genx", "brac", 1)],
                             ids=["fig1-brac", "case6a-wpi", "genx-brac"])
    def test_same_report_under_python_O(self, tmp_path, name, cls, code):
        # -O strips assert statements: no outcome may depend on them
        def argv(tag):
            return ["synth", fx(f"{name}.lts"), "--class", cls,
                    "-o", str(tmp_path / f"{tag}.pn"),
                    "--report", str(tmp_path / f"{tag}.json")]
        assert run(argv("plain")) == code
        src = pathlib.Path(__file__).parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "netsynth.cli", *argv("opt")],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True)
        assert proc.returncode == code, proc.stderr
        assert (tmp_path / "opt.json").read_bytes() == \
            (tmp_path / "plain.json").read_bytes()

    def test_selfloop_cap_exit_3(self, tmp_path, capsys):
        report = tmp_path / "r.json"
        assert run(["synth", fx("brac7.lts"), "--class", "wpi",
                    "--selfloop-cap", "1", "-o", str(tmp_path / "n.pn"),
                    "--report", str(report)]) == 3
        assert capsys.readouterr().err == "cap exceeded: selfloop-cap\n"
        payload = json.loads(report.read_text())
        assert (payload["outcome"], payload["cap"]) == \
            ("cap-exceeded", "selfloop-cap")

    def test_cap_defaults_are_the_config_defaults(self):
        args = _parser().parse_args(["synth", fx("fig1.lts"), "--class",
                                     "wpi"])
        cfg = SynthesisConfig()
        assert (args.selfloop_cap, args.ssp_combo_cap) == \
            (cfg.selfloop_cap, cfg.ssp_combo_cap)

    def test_selfloop_cap_below_one_exit_2(self, capsys):
        assert run(["synth", fx("brac7.lts"), "--class", "wpi",
                    "--selfloop-cap", "0"]) == 2
        assert capsys.readouterr().err == \
            "error: selfloop_cap must be at least 1\n"

    def test_jobs_option_removed(self):
        assert run(["synth", fx("fig1.lts"), "--class", "wpi",
                    "--jobs", "2"]) == 2


class TestInvalidLts:
    @pytest.mark.parametrize("argv", [
        ["relations", "BAD"],
        ["synth", "BAD", "--class", "wpi"],
        ["verify", fx("fig1-net.pn"), "BAD", "--class", "brac"],
    ], ids=["relations", "synth", "verify"])
    def test_exit_2_with_message(self, tmp_path, capsys, argv):
        bad = tmp_path / "bad.lts"
        bad.write_text("initial s0\ns0 a s1\ns0 a s2\n")
        assert run([str(bad) if a == "BAD" else a for a in argv]) == 2
        assert capsys.readouterr().err == \
            "error: LTS must be deterministic and reachable\n"

    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.lts"
        bad.write_text("initial s0\ns0 a\n")
        assert run(["validate", str(bad)]) == 2
        assert capsys.readouterr().err == \
            "error: line 2: expected 'src label dst'\n"

    @pytest.mark.parametrize("argv", [
        ["validate", "BAD"],
        ["synth", "BAD", "--class", "wpi"],
        ["check", "BAD", "--class", "brac"],
    ], ids=["validate", "synth", "check"])
    def test_non_utf8_file_exit_2(self, tmp_path, capsys, argv):
        bad = tmp_path / "bad"
        bad.write_bytes(b"initial s\xe9\ns\xe9 a s1\n")
        assert run([str(bad) if a == "BAD" else a for a in argv]) == 2
        assert capsys.readouterr().err == \
            f"error: cannot read {bad}: not UTF-8 text\n"

    @pytest.mark.parametrize("argv", [
        ["validate", "FILE"],
        ["synth", "FILE", "--class", "brac", "--report", "-"],
        ["synth", "FILE", "--class", "wpi", "--report", "-"],
        ["check", "NET", "--class", "brac"],
    ], ids=["validate", "synth-brac", "synth-wpi", "check"])
    def test_leading_bom_is_dropped(self, tmp_path, capsys, argv):
        """A file that starts with a UTF-8 byte order mark reads as the
        same file without it."""
        plain = {"FILE": fx("fig1.lts"), "NET": fx("fig1-net.pn")}
        bom = {key: tmp_path / pathlib.Path(path).name
               for key, path in plain.items()}
        for key, path in plain.items():
            bom[key].write_text("\ufeff" + pathlib.Path(path).read_text(),
                                encoding="utf-8")
        results = []
        for files in (plain, bom):
            code = run([str(files.get(a, a)) for a in argv])
            results.append((code, capsys.readouterr()))
        assert results[0] == results[1]
        assert results[0][0] == 0

    @pytest.mark.parametrize("argv", [
        ["synth", fx("brac7.lts"), "--class", "wpi", "--ssp-combo-cap", "0"],
        ["rg", fx("fig1-net.pn"), "--rg-cap", "0"],
    ], ids=["ssp-combo-cap", "rg-cap"])
    def test_cap_option_below_one_exit_2(self, capsys, argv):
        assert run(argv) == 2
        name = argv[-2].lstrip("-").replace("-", "_")
        assert capsys.readouterr().err == \
            f"error: {name} must be at least 1\n"


class TestUnwritableOutput:
    """An output path that cannot be written is invalid input: exit 2 with
    the path and the reason, as for a file that cannot be read."""

    @pytest.mark.parametrize("argv", [
        ["synth", fx("fig1.lts"), "--class", "brac", "-o", "OUT"],
        ["synth", fx("fig1.lts"), "--class", "wpi", "--report", "OUT"],
        ["synth", fx("fig1.lts"), "--class", "brac", "--dot", "OUT"],
        ["validate", fx("fig1.lts"), "--json", "OUT"],
        ["relations", fx("fig1.lts"), "--json", "OUT"],
        ["check", fx("fig1-net.pn"), "--class", "brac", "--json", "OUT"],
        ["verify", fx("fig1-net.pn"), fx("fig1.lts"), "--class", "brac",
         "--json", "OUT"],
        ["rg", fx("fig1-net.pn"), "-o", "OUT"],
        ["dot", fx("fig1-net.pn"), "-o", "OUT"],
    ], ids=["synth-o", "synth-report", "synth-dot", "validate-json",
            "relations-json", "check-json", "verify-json", "rg-o", "dot-o"])
    def test_missing_directory_exit_2(self, tmp_path, capsys, argv):
        out = tmp_path / "missing" / "out"
        code = run([str(out) if a == "OUT" else a for a in argv])
        err = capsys.readouterr().err
        assert code == 2
        assert err.endswith(
            f"error: cannot write {out}: No such file or directory\n")
        assert "internal error" not in err
        assert not out.parent.exists()

    @pytest.mark.parametrize("failing", ["-o", "--dot", "--report"])
    def test_failed_write_leaves_no_report(self, tmp_path, capsys, failing):
        """`synth` writes all its files or none: a run that exits 2 leaves
        neither a net, a dot, a report nor a temporary file."""
        missing = tmp_path / "missing" / "x"
        outputs = {"-o": tmp_path / "x.pn", "--dot": tmp_path / "x.dot",
                   "--report": tmp_path / "r.json", failing: missing}
        code = run(["synth", fx("fig1.lts"), "--class", "brac",
                    *(str(a) for option, path in outputs.items()
                      for a in (option, path))])
        assert code == 2
        assert capsys.readouterr().err.endswith(
            f"error: cannot write {missing}: No such file or directory\n")
        assert list(tmp_path.iterdir()) == []

    def test_directory_target_fails_before_any_write(self, tmp_path,
                                                     capsys):
        """A directory in the dot's place fails before anything is
        written: a net already at the ``-o`` path is left as it was."""
        (tmp_path / "d").mkdir()
        (tmp_path / "x.pn").write_text("old\n")
        code = run(["synth", fx("fig1.lts"), "--class", "brac",
                    "-o", str(tmp_path / "x.pn"),
                    "--dot", str(tmp_path / "d")])
        assert code == 2
        assert capsys.readouterr().err.endswith(
            f"error: cannot write {tmp_path / 'd'}: Is a directory\n")
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["d", "x.pn"]
        assert (tmp_path / "x.pn").read_text() == "old\n"

    def test_symlinks_written_through(self, tmp_path, capsys):
        """An output path that is a symlink stays one: the file it points
        to gets the text, and an existing one keeps its mode."""
        assert run(["dot", fx("fig1-net.pn")]) == 0
        dot = capsys.readouterr().out
        (tmp_path / "old.dot").write_text("old\n")
        (tmp_path / "old.dot").chmod(0o640)
        for link, target in [("a.dot", "old.dot"), ("b.dot", "new.dot")]:
            (tmp_path / link).symlink_to(target)
            assert run(["dot", fx("fig1-net.pn"), "-o",
                        str(tmp_path / link)]) == 0
            assert (tmp_path / link).is_symlink()
            assert (tmp_path / target).read_text() == dot
        assert (tmp_path / "old.dot").stat().st_mode & 0o777 == 0o640
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "a.dot", "b.dot", "new.dot", "old.dot"]

    def test_non_regular_target_written_to(self, tmp_path, capsys):
        """A path that is neither a regular file nor missing, here a named
        pipe, is written to, not replaced by a file."""
        assert run(["dot", fx("fig1-net.pn")]) == 0
        dot = capsys.readouterr().out
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(
            target=lambda: received.append(fifo.read_text()), daemon=True)
        reader.start()
        assert run(["dot", fx("fig1-net.pn"), "-o", str(fifo)]) == 0
        reader.join(timeout=10)
        assert received == [dot]
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["pipe"]

    def test_stale_temporary_file_does_not_fail(self, tmp_path, capsys):
        """A temporary file left by a killed run with the same process id
        is overwritten, then renamed into place."""
        stale = tmp_path / f".x.dot.{os.getpid()}-0.tmp"
        stale.write_text("stale\n")
        assert run(["dot", fx("fig1-net.pn"), "-o",
                    str(tmp_path / "x.dot")]) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["x.dot"]

    def test_all_outputs_written_together(self, tmp_path, capsys):
        names = ["x.pn", "x.dot", "r.json"]
        code = run(["synth", fx("fig1.lts"), "--class", "brac",
                    *(str(a) for option, name in zip(
                        ["-o", "--dot", "--report"], names)
                      for a in (option, tmp_path / name))])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)

    def test_directory_as_output_exit_2(self, tmp_path, capsys):
        assert run(["validate", fx("fig1.lts"), "--json",
                    str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: cannot write {tmp_path}: ")

    @pytest.mark.parametrize("old", [None, "old\n"], ids=["new", "existing"])
    def test_one_file_named_twice_exit_2(self, tmp_path, capsys, old):
        """Two outputs naming one regular or new file would lose the
        first text: the run exits 2 and writes no file."""
        out = tmp_path / "x"
        if old is not None:
            out.write_text(old)
        code = run(["synth", fx("fig1.lts"), "--class", "brac",
                    "-o", str(out), "--report", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: two outputs name {out}\n"
        assert list(tmp_path.iterdir()) == ([] if old is None else [out])
        if old is not None:
            assert out.read_text() == old

    def test_one_file_named_through_a_symlink_exit_2(self, tmp_path,
                                                     capsys):
        (tmp_path / "link").symlink_to("x.dot")
        code = run(["synth", fx("fig1.lts"), "--class", "brac",
                    "-o", str(tmp_path / "link"),
                    "--dot", str(tmp_path / "x.dot")])
        assert code == 2
        assert capsys.readouterr().err == \
            f"error: two outputs name {tmp_path / 'x.dot'}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["link"]

    @staticmethod
    def synth_to_stdout_pipe(*outputs):
        """`synth` fig1 with its net on ``/dev/stdout``, here a pipe."""
        src = pathlib.Path(__file__).parents[1] / "src"
        return subprocess.run(
            [sys.executable, "-m", "netsynth.cli", "synth", fx("fig1.lts"),
             "--class", "brac", "-o", "/dev/stdout", *outputs],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True)

    def test_pipe_not_written_when_a_file_fails(self, tmp_path):
        """A write-through output (a pipe) gets no text when a later
        file output cannot be written."""
        missing = tmp_path / "missing" / "x"
        proc = self.synth_to_stdout_pipe("--report", str(missing))
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr.decode().endswith(
            f"error: cannot write {missing}: No such file or directory\n")

    def test_pipe_not_written_when_a_file_is_named_twice(self, tmp_path):
        out = tmp_path / "x"
        proc = self.synth_to_stdout_pipe("--report", str(out),
                                         "--dot", str(out))
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr.decode() == f"error: two outputs name {out}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs /dev/full, a device whose writes fail")
    def test_pipe_not_written_when_a_device_fails_its_write(self):
        """A device that opens but fails while it is written is written
        before the pipe, so the pipe gets no text."""
        proc = self.synth_to_stdout_pipe("--report", "/dev/full")
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr.decode().endswith(
            "error: cannot write /dev/full: No space left on device\n")

    def test_pipe_written_beside_a_device(self):
        proc = self.synth_to_stdout_pipe("--report", os.devnull)
        assert proc.returncode == 0
        assert proc.stdout.startswith(b"place ")

    @pytest.mark.parametrize("sink", ["/dev/null", "-"])
    def test_stream_named_twice_is_written(self, tmp_path, capsys, sink):
        """``/dev/null`` and standard output are no file: each output
        goes to them in turn."""
        code = run(["synth", fx("fig1.lts"), "--class", "brac",
                    "-o", sink, "--report", sink])
        assert code == 0
        out = capsys.readouterr().out
        if sink == "-":
            assert out.startswith("place ") and out.endswith("}\n")
        else:
            assert out == ""


class TestCheck:
    def test_fig1_net_is_brac(self, capsys):
        code, payload = run_json(capsys, ["check", fx("fig1-net.pn"),
                                          "--class", "brac"])
        assert code == 0
        assert "BRAC" in payload["flags"]

    def test_weighted_net_is_not_brac(self, capsys):
        code, _ = run_json(capsys, ["check", fx("wrac-net.pn"),
                                    "--class", "brac"])
        assert code == 1

    def test_wpi_flag(self, capsys):
        code, _ = run_json(capsys, ["check", fx("wrac-net-swapped.pn"),
                                    "--class", "wpi"])
        assert code == 0

    def test_number_too_long_for_int_exit_2(self, tmp_path, capsys):
        """A token count of more digits than `int` converts is a format
        error with its line, not an internal error."""
        net = tmp_path / "big.pn"
        net.write_text("transition t\nplace p " + "9" * 5000 + "\n")
        assert run(["check", str(net), "--class", "wpi"]) == 2
        assert capsys.readouterr().err == \
            "error: line 2: number of 5000 digits is too long\n"


class TestRgVerifyDot:
    def test_rg_output(self, tmp_path, capsys):
        out = tmp_path / "rg.lts"
        code = run(["rg", fx("fig1-net.pn"), "-o", str(out)])
        assert code == 0
        text = out.read_text()
        assert text.startswith("initial m0")
        assert len([l for l in text.splitlines() if " " in l]) == 25

    def test_rg_cap(self, tmp_path, capsys):
        unbounded = tmp_path / "u.pn"
        unbounded.write_text("place p 0\ntransition t\narc t p\n")
        assert run(["rg", str(unbounded), "--rg-cap", "10"]) == 3
        assert capsys.readouterr().err == \
            "cap exceeded: more than 10 reachable markings\n"

    def test_rg_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.pn"
        bad.write_text("place p 0\ntransition t\narc p q\n")
        assert run(["rg", str(bad)]) == 2
        assert capsys.readouterr().err == \
            "error: line 3: arc endpoints must be one known place and " \
            "one known transition\n"

    def test_verify_pass(self, capsys):
        code, payload = run_json(capsys, ["verify", fx("fig1-net.pn"),
                                          fx("fig1.lts"),
                                          "--class", "brac"])
        assert code == 0
        assert payload["isomorphic"] and payload["target_ok"]

    def test_verify_unbounded_net_exit_1(self, tmp_path, capsys):
        unbounded = tmp_path / "u.pn"
        unbounded.write_text("place p 0\ntransition a\narc a p\n")
        lts = tmp_path / "two.lts"
        lts.write_text("initial s0\ns0 a s1\n")
        code, payload = run_json(capsys, ["verify", str(unbounded), str(lts),
                                          "--class", "wpi"])
        assert code == 1
        assert payload["mismatch"] == "state counts differ"

    def test_verify_mismatch(self, capsys):
        code, payload = run_json(capsys, ["verify", fx("fig1-net.pn"),
                                          fx("genx.lts"),
                                          "--class", "wpi"])
        assert code == 1
        assert not payload["isomorphic"]

    def test_dot_command(self, capsys):
        code, out = run_json(capsys, ["dot", fx("brac7-net.pn")])
        assert code == 0
        assert out.count("shape=circle") == 5

    def test_installed_entry_point(self):
        import shutil
        import subprocess
        exe = shutil.which("netsynth")
        if exe is None:
            pytest.skip("entry point not installed")
        proc = subprocess.run([exe, "check", fx("fig1-net.pn"),
                               "--class", "brac"], capture_output=True)
        assert proc.returncode == 0
