"""CLI result-line protocol and exit codes, driven through main()."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from relsrs import (
    EnumerationConfig,
    enumerate_systems,
    parse_system,
    print_system,
    system_size,
)
from relsrs.cli import main

FIXTURES = Path(__file__).parent / "fixtures"

ABA = "(RULES a b -> a, c ->= b c)\n"
TERMINATING = "(RULES a b -> a, b ->= )\n"
UNSOLVED = "(RULES a c -> c c a, c ->= b a a b, b a a b ->= c)\n"


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        return code, capsys.readouterr().out

    return invoke


def srs(tmp_path, text, name="input.srs"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestProve:
    def test_yes(self, run, tmp_path):
        code, out = run("prove", srs(tmp_path, TERMINATING))
        lines = out.splitlines()
        assert code == 0 and lines[0] == "YES"
        assert "reason: R union S terminates" in lines
        assert any(l.startswith("attempt ") for l in lines)
        body = out[out.index("{") : out.rindex("}") + 1]
        assert json.loads(body)["type"] == "strictify-compose"

    def test_no(self, run, tmp_path):
        code, out = run("prove", srs(tmp_path, ABA))
        assert code == 0 and out.splitlines()[0] == "NO"
        assert '"type": "loop-mixed"' in out

    def test_maybe_exits_one(self, run, tmp_path):
        code, out = run(
            "prove", srs(tmp_path, UNSOLVED),
            "--max-dim", "1", "--max-word-len", "6", "--max-steps", "8",
        )
        assert code == 1 and out.splitlines()[0] == "MAYBE"
        assert "reason: no method conclusive within budget" in out

    def test_timeout_reports_maybe(self, run, tmp_path):
        code, out = run("prove", srs(tmp_path, UNSOLVED), "--timeout", "1e-6")
        assert code == 1 and out.splitlines()[0] == "MAYBE"
        assert "reason: timeout" in out

    def test_runs_are_byte_identical(self, run, tmp_path):
        path = srs(tmp_path, "(RULES b a b -> a, c ->= c b, d ->= b d)\n")
        assert run("prove", path) == run("prove", path)

    def test_missing_file(self, run):
        code, out = run("prove", "no-such-file.srs")
        assert code == 2 and out.startswith("ERROR: ")


class TestProveCheckCert:
    def test_valid_certificate(self, run):
        code, out = run(
            "prove", str(FIXTURES / "rel12.srs"),
            "--check-cert", str(FIXTURES / "rel12.cert"),
        )
        assert code == 0 and out.splitlines()[0] == "YES"
        assert '"type": "matrix-natural"' in out

    def test_tampered_certificate(self, run, tmp_path):
        data = json.loads((FIXTURES / "rel12.cert").read_text())
        data["matrices"]["b"][1][2] = 0
        bad = tmp_path / "bad.cert"
        bad.write_text(json.dumps(data))
        code, out = run("prove", str(FIXTURES / "rel12.srs"), "--check-cert", str(bad))
        assert code == 2
        assert out.startswith("ERROR: supplied certificate rejected: ")

    def test_unparsable_certificate(self, run, tmp_path):
        bad = tmp_path / "bad.cert"
        bad.write_text("{not json")
        code, out = run("prove", str(FIXTURES / "rel12.srs"), "--check-cert", str(bad))
        assert code == 2 and "not valid JSON" in out


class TestLoop:
    def test_found(self, run, tmp_path):
        code, out = run("loop", srs(tmp_path, ABA))
        assert code == 0 and out.splitlines()[0] == "NO"
        assert '"type": "loop-mixed"' in out

    def test_none_found(self, run, tmp_path):
        code, out = run("loop", srs(tmp_path, TERMINATING))
        assert code == 1
        assert out == "MAYBE\nnone found (bound 12)\n"

    def test_bound_flag_is_reported(self, run, tmp_path):
        code, out = run("loop", srs(tmp_path, TERMINATING), "--max-word-len", "5")
        assert code == 1 and "none found (bound 5)" in out

    def test_timeout_cuts_the_search(self, run, tmp_path):
        # with the default bounds and no timeout this runs for minutes
        start = time.monotonic()
        code, out = run("loop", srs(tmp_path, "(RULES a -> b, c ->= b c)\n"), "--timeout", "0.5")
        assert time.monotonic() - start < 5
        assert code == 1
        assert out == "MAYBE\ntimeout before the search finished (bound 12)\n"


class TestClosures:
    def test_found(self, run, tmp_path):
        code, out = run("closures", srs(tmp_path, "(RULES b a -> a, c ->= c b)\n"))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "NO"
        assert lines[-1] == "looping closure: c a -> c a (1 strict steps)"

    def test_none_found(self, run, tmp_path):
        code, out = run("closures", srs(tmp_path, ABA))
        assert code == 1 and out == "MAYBE\nnone found (bound 20)\n"

    def test_timeout_cuts_the_search(self, run, tmp_path):
        # saturation up to the default size bound runs for minutes here
        start = time.monotonic()
        path = srs(tmp_path, "(RULES a -> , ->= b , b a ->= a)\n")
        code, out = run("closures", path, "--timeout", "0.5")
        assert time.monotonic() - start < 5
        assert code == 1
        assert out == "MAYBE\ntimeout before the search finished (bound 20)\n"

    def test_node_budget_cuts_the_search(self, run, tmp_path):
        # without a timeout the search stops at its budget of kept closures
        start = time.monotonic()
        code, out = run("closures", srs(tmp_path, "(RULES a -> , ->= b , b a ->= a)\n"))
        assert time.monotonic() - start < 10
        assert code == 1
        assert out == "MAYBE\nnode budget reached before the search finished (bound 20)\n"


class TestCheckCert:
    def test_certified(self, run):
        code, out = run(
            "check-cert", str(FIXTURES / "rel11.srs"), str(FIXTURES / "rel11.cert")
        )
        assert (code, out) == (0, "CERTIFIED\n")

    def test_rejected(self, run, tmp_path):
        data = json.loads((FIXTURES / "rel11.cert").read_text())
        data["matrices"]["p"][1][2] = 0
        bad = tmp_path / "bad.cert"
        bad.write_text(json.dumps(data))
        code, out = run("check-cert", str(FIXTURES / "rel11.srs"), str(bad))
        assert code == 1
        assert out == (
            "REJECTED: rule b p b -> b a p b: entry (1,1) violates >> (0 vs 0)\n"
        )

    def test_rejected_reason_spells_minus_infinity(self, run, tmp_path):
        cert = tmp_path / "arctic.cert"
        cert.write_text(json.dumps({
            "type": "matrix-arctic", "dimension": 2, "matrices": {
                "a": [[1, "-inf"], ["-inf", 1]], "b": [[0, 0], ["-inf", 0]],
            },
        }))
        code, out = run("check-cert", srs(tmp_path, "(RULES a -> b)\n"), str(cert))
        assert (code, out) == (1, "REJECTED: rule a -> b: entry (1,2) violates >> (-inf vs 0)\n")

    def test_loop_in_a_termination_role_rejected(self, run, tmp_path):
        # a mixed loop of the strictified system posing as its termination
        # proof; prove settles this system NO
        loop = {
            "type": "loop-mixed", "start": ["a"], "steps": [{"rule": 0, "position": 0}],
            "left": [], "right": ["b"],
        }
        cert = tmp_path / "forged.cert"
        cert.write_text(json.dumps({
            "type": "strictify-compose", "verdict": "YES",
            "parts": [{"role": "strictified-termination", "certificate": loop}],
        }))
        code, out = run("check-cert", srs(tmp_path, "(RULES a -> a b, b ->= )\n"), str(cert))
        assert (code, out) == (1, (
            "REJECTED: part 'strictified-termination': "
            "a termination part must be a YES certificate\n"
        ))

    def test_empty_r_as_s_termination_still_certified(self, run, tmp_path):
        # what prove printed for this system while an empty S got its own
        # branch: the s-termination part is an empty-R certificate
        loop = {
            "type": "loop-mixed", "start": ["a"], "steps": [{"rule": 0, "position": 0}],
            "left": [], "right": ["b"],
        }
        cert = tmp_path / "empty-s.cert"
        cert.write_text(json.dumps({
            "type": "strictify-compose", "verdict": "NO",
            "parts": [
                {"role": "s-termination", "certificate": {"type": "empty-R"}},
                {"role": "strictified-loop", "certificate": loop},
            ],
        }))
        code, out = run("check-cert", srs(tmp_path, "(RULES a -> a b)\n"), str(cert))
        assert (code, out) == (0, "CERTIFIED\n")

    def test_wrong_letters_rejected(self, run, tmp_path):
        cert = tmp_path / "weights.cert"
        cert.write_text(json.dumps({"type": "weights", "weights": {"z": 1}}))
        code, out = run("check-cert", str(FIXTURES / "rel11.srs"), str(cert))
        assert code == 1 and out.startswith("REJECTED: ")

    def test_unknown_type_is_an_error(self, run, tmp_path):
        cert = tmp_path / "odd.cert"
        cert.write_text(json.dumps({"type": "polynomial"}))
        code, out = run("check-cert", str(FIXTURES / "rel11.srs"), str(cert))
        assert code == 2 and out.startswith("ERROR: ")

    def test_invalid_json(self, run, tmp_path):
        cert = tmp_path / "junk.cert"
        cert.write_text("]")
        code, out = run("check-cert", str(FIXTURES / "rel11.srs"), str(cert))
        assert code == 2 and "not valid JSON" in out


class TestParse:
    def test_ok_and_normalized(self, run, tmp_path):
        path = srs(tmp_path, "(RULES  a b -> a,b ->=  )\n")
        code, out = run("parse", path)
        assert code == 0
        assert out == "OK\n(RULES\n  a b -> a ,\n  b ->=\n)\n"

    def test_error_carries_position(self, run, tmp_path):
        code, out = run("parse", srs(tmp_path, "(RULES\n  a b)\n"))
        assert code == 2 and out.startswith("ERROR: ") and "line 2" in out


class TestEnumerate:
    def test_manifest_on_stdout(self, run):
        code, out = run("enumerate", "--alphabet", "2", "--max-size", "2")
        assert code == 0
        assert out.splitlines()[0] == "OK 14 systems"
        assert "universe: 31 rules (relative identity rules excluded: 3)" in out
        assert "size 2: 14" in out

    def test_output_directory(self, run, tmp_path):
        out_dir = tmp_path / "systems"
        code, out = run(
            "enumerate", "--alphabet", "2", "--max-size", "2", "--out", str(out_dir)
        )
        assert code == 0 and out == "OK 14 systems\n"
        names = sorted(p.name for p in out_dir.iterdir())
        assert names[0] == "manifest.txt"
        assert names[1:] == [f"s02_{i:08d}.srs" for i in range(1, 15)]
        assert "size 2: 14" in (out_dir / "manifest.txt").read_text()
        # every written file is itself parseable
        code, _ = run("parse", str(out_dir / "s02_00000001.srs"))
        assert code == 0

    def test_sorted_names_follow_the_stream(self, run, tmp_path):
        out_dir = tmp_path / "systems"
        code, _ = run("enumerate", "--alphabet", "2", "--max-size", "4", "--out", str(out_dir))
        assert code == 0
        paths = sorted(p for p in out_dir.iterdir() if p.suffix == ".srs")
        written = [print_system(s) for s in enumerate_systems(EnumerationConfig(2, 4))]
        assert len(written) == 987 and len({system_size(s) for s in map(parse_system, written)}) > 1
        assert [p.read_text() for p in paths] == written

    def test_prove_summary(self, run, tmp_path):
        out_dir = tmp_path / "systems"
        code, out = run(
            "enumerate", "--alphabet", "2", "--max-size", "2",
            "--out", str(out_dir), "--prove",
        )
        assert code == 0
        assert out == (
            "OK 14 systems\n"
            "size 2: YES 2 NO 12 MAYBE 0\n"
            "total: YES 2 NO 12 MAYBE 0\n"
        )
        assert (out_dir / "verdicts.txt").read_text() == (
            "size 2: YES 2 NO 12 MAYBE 0\ntotal: YES 2 NO 12 MAYBE 0\n"
        )

    def test_parallel_jobs_agree(self, run, tmp_path):
        def survey(*jobs):
            out_dir = tmp_path / f"jobs{len(jobs)}"
            argv = ("--alphabet", "2", "--max-size", "4", "--prove", "--out", str(out_dir))
            code, out = run("enumerate", *argv, *jobs)
            files = {p.name: p.read_bytes() for p in out_dir.iterdir()}
            return code, out, files

        code1, out1, files1 = survey()
        assert out1.startswith("OK 987 systems\n") and len(files1) == 987 + 2
        assert survey("--jobs", "2") == (code1, out1, files1)

    def test_survey_memory_does_not_hold_the_stream(self, run):
        tracemalloc.start()
        try:
            code, out = run("enumerate", "--alphabet", "2", "--max-size", "6")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and out.startswith("OK 30951 systems\n")
        assert peak < 2.5 * 2**20


class TestUsage:
    def test_no_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("argv", [
        ("closures", "--max-closure-size", "-1"),
        ("closures", "--timeout", "-0.5"),
        ("closures", "--timeout", "nan"),
        ("loop", "--max-word-len", "-1"),
        ("loop", "--max-steps", "-2"),
        ("prove", "--max-dim", "0"),
        ("prove", "--max-entry", "-3"),
        ("prove", "--timeout", "-1"),
        ("enumerate", "--alphabet", "2", "--max-size", "2", "--max-dim", "0"),
        ("prove", "--max-word-len", "x"),
        ("enumerate", "--alphabet", "2", "--max-size", "2", "--prove", "--jobs", "0"),
        ("enumerate", "--alphabet", "2", "--max-size", "2", "--prove", "--jobs", "-3"),
    ])
    def test_bad_search_bound_exits_two(self, tmp_path, capsys, argv):
        # a bound below the smallest searchable value is a usage error, as
        # a non-integer is, not "none found" up to a bound never searched
        command, *flags = argv
        files = [] if command == "enumerate" else [srs(tmp_path, TERMINATING)]
        with pytest.raises(SystemExit) as exc:
            main([command, *files, *flags])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv, first_line", [
        (("closures", "--max-closure-size", "0"), "MAYBE"),
        (("loop", "--max-word-len", "0", "--max-steps", "0"), "MAYBE"),
        (("prove", "--max-dim", "1", "--max-entry", "0", "--timeout", "0"), "MAYBE"),
    ])
    def test_smallest_bounds_are_accepted(self, run, tmp_path, argv, first_line):
        command, *flags = argv
        code, out = run(command, srs(tmp_path, TERMINATING), *flags)
        assert code == 1 and out.splitlines()[0] == first_line


class TestBrokenPipe:
    def test_closed_reader_ends_quietly(self, tmp_path):
        # stdout is a pipe whose read end is already closed, as behind
        # `relsrs prove f.srs | head -1` once head has exited
        import relsrs

        src = str(Path(relsrs.__file__).resolve().parent.parent)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-c", "import sys; from relsrs.cli import main; sys.exit(main())",
                 "prove", srs(tmp_path, ABA)],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                env=dict(os.environ, PYTHONPATH=src),
            )
        finally:
            os.close(write_end)
        assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
        assert proc.stderr == "" and proc.returncode == 2


class TestInstalledScript:
    def test_entry_point(self, tmp_path):
        # without an installed script, run the module the script calls
        exe = shutil.which("relsrs")
        src = Path(__file__).resolve().parent.parent / "src"
        command = [exe] if exe else [sys.executable, "-m", "relsrs.cli"]
        env = os.environ if exe else {**os.environ, "PYTHONPATH": str(src)}
        path = tmp_path / "input.srs"
        path.write_text(TERMINATING)
        proc = subprocess.run(
            command + ["prove", str(path)], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "YES"


class TestFrozenFrontierOutput:
    """The seven commands of perfbench/data/frontier.json print the same
    bytes as when these digests were recorded, with this snippet run from
    the repository root (each command's argv[1] is the .srs file, read in
    place):

        data = Path("perfbench/data")
        for item in json.loads((data / "frontier.json").read_text())["items"]:
            argv = [item["argv"][0], str(data / "frontier" / item["argv"][1])]
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(argv + item["argv"][2:])
            print(item["name"], code, hashlib.sha256(buf.getvalue().encode()).hexdigest())
    """

    DIGESTS = {
        "prove-ab_bba": (1, "20223ff4db59e1faeabb6ae19f44917e5d98947f3e3db1624af2555341cffdf3"),
        "prove-abb_aba": (1, "b4ef9913f50c9b4f16c3cf1f9d2f15cb0974df36456c5d21b8c903fac0f0d79a"),
        "prove-a_ab_baa": (1, "57f4f0ad675f483c1e416e408331665feb1d55ffb81aab6c7095a407c3beef87"),
        "prove-aa_bab": (0, "58194f4433c63c1c0153d37ec44b7a74ceeab0a4f687951e3b213818806cff83"),
        "prove-a_bb_bab": (0, "b4845a184e0a6fac0960a910cc652d51bc4a908d71ef5976ec830840dd9ba55a"),
        "loop-ab_a": (1, "5faa94bd81f51b5eeaacd15c04a7dccba3d9d203f5851188de84af0bbd97946d"),
        "closures-a_b_ba_a": (1, "5faa94bd81f51b5eeaacd15c04a7dccba3d9d203f5851188de84af0bbd97946d"),
    }

    def test_stdout_digests(self, run):
        data = Path(__file__).resolve().parent.parent / "perfbench" / "data"
        seen = {}
        for item in json.loads((data / "frontier.json").read_text())["items"]:
            argv = [item["argv"][0], str(data / "frontier" / item["argv"][1])]
            code, out = run(*argv, *item["argv"][2:])
            seen[item["name"]] = (code, hashlib.sha256(out.encode()).hexdigest())
        assert seen == self.DIGESTS
