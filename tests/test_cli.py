import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from echlens import capacities, checks, cli, ellipsoid, geometry, weights
from echlens.domains import parse_domain_file
from helpers import ball_closed_form, brute_floor_sum, lattice_index, perturbed, pick_lattice_count


@pytest.fixture
def domain_file(tmp_path):
    path = tmp_path / "example.dom"
    path.write_text("# example domain\nn = 2\nvertices = (6,3) (3,2) (0,2)\n")
    return str(path)


@pytest.fixture
def ball_file(tmp_path):
    path = tmp_path / "b21.dom"
    path.write_text("n = 2\nvertices = (2,1) (0,1)\n")
    return str(path)


@pytest.fixture
def thin_file(tmp_path):
    path = tmp_path / "thin.dom"
    path.write_text("n = 1\nvertices = (1,1) (0,100)\n")
    return str(path)


@pytest.fixture
def big_ball_file(tmp_path):
    path = tmp_path / "b22.dom"
    path.write_text("n = 2\nvertices = (4,2) (0,2)\n")
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEllipsoid:
    def test_table(self, capsys):
        code, out, _ = run(capsys, ["ellipsoid", "--n", "2", "--a", "1", "--b", "1", "--kmax", "3"])
        assert code == 0
        assert out == "k  c_k\n0  0\n1  2\n2  2\n3  2\n"

    def test_csv(self, capsys):
        code, out, _ = run(
            capsys,
            ["ellipsoid", "--n", "1", "--a", "1", "--b", "3/2", "--kmax", "2", "--format", "csv"],
        )
        assert code == 0
        assert out == "k,numerator,denominator\n0,0,1\n1,1,1\n2,3,2\n"

    def test_decimal(self, capsys):
        code, out, _ = run(
            capsys,
            ["ellipsoid", "--n", "1", "--a", "1", "--b", "3/2", "--kmax", "2", "--decimal", "2"],
        )
        assert code == 0
        assert "~1.50" in out

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["ellipsoid", "--n", "1", "--a", "1", "--b", "3/2", "--decimal", "7"], "0  ~0.0000000"),
            (["ball", "--a", "1/3", "--decimal", "30"], "1  ~0." + "3" * 30),
            (["ball", "--a", "1/8", "--decimal", "2"], "1  ~0.12"),
            (["ball", "--a", "3/8", "--decimal", "2"], "1  ~0.38"),
        ],
        ids=["zero-7-digits", "third-30-digits", "tie-down", "tie-up"],
    )
    def test_decimal_is_exact(self, capsys, argv, line):
        code, out, _ = run(capsys, argv + ["--kmax", "2"])
        assert code == 0
        assert line in out.splitlines()

    def test_decimal_with_csv_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["ball", "--a", "1/3", "--kmax", "3", "--format", "csv", "--decimal", "4"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--decimal" in captured.err

    def test_rejects_zero_period(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["ellipsoid", "--n", "2", "--a", "0", "--b", "1"])
        assert info.value.code == 2


    def test_table_and_csv_rows_are_the_reduced_values(self, capsys):
        argv = ["ellipsoid", "--n", "3", "--a", "5/3", "--b", "233/144", "--kmax", "60"]
        values = capacities.ellipsoid_sequence(3, Fraction(5, 3), Fraction(233, 144), 60)
        _, table, _ = run(capsys, argv)
        _, csv, _ = run(capsys, argv + ["--format", "csv"])
        assert table.splitlines()[1:] == [
            f"{k}  {geometry.format_rational(v)}" for k, v in enumerate(values)
        ]
        assert csv.splitlines()[1:] == [
            f"{k},{v.numerator},{v.denominator}" for k, v in enumerate(values)
        ]
        assert any(v.denominator > 1 for v in values) and any(
            v.denominator == 1 for v in values
        )


class TestBall:
    def test_classical(self, capsys):
        code, out, _ = run(capsys, ["ball", "--a", "1", "--kmax", "6"])
        assert code == 0
        assert out.splitlines()[1:] == ["0  0", "1  1", "2  1", "3  2", "4  2", "5  2", "6  3"]

    def test_singular(self, capsys):
        code, out, _ = run(capsys, ["ball", "--a", "1", "--n", "2", "--kmax", "2"])
        assert code == 0
        assert out.splitlines()[1:] == ["0  0", "1  2", "2  2"]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_ellipsoid(self, capsys, n):
        ball = run(capsys, ["ball", "--n", str(n), "--a", "7/4", "--kmax", "200"])
        ellipsoid = run(
            capsys,
            ["ellipsoid", "--n", str(n), "--a", "7/4", "--b", "7/4", "--kmax", "200"],
        )
        assert ball[0] == 0
        assert ball == ellipsoid
        closed = ball_closed_form(Fraction(7, 4), 200, n)
        assert ball[1] == "k  c_k\n" + "".join(
            f"{k}  {geometry.format_rational(v)}\n" for k, v in enumerate(closed)
        )

    @pytest.mark.parametrize("text", ["1/0", "3/00"])
    def test_rejects_zero_denominator(self, capsys, text):
        with pytest.raises(SystemExit) as info:
            cli.main(["ball", "--a", text])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --a: not a rational literal with q > 0: '{text}'" in err


# (n, a, b): balls with and without a common factor over their scale, and
# near-irrational ratios with a = 1 and a = 5/3
STREAMED = [
    (n, Fraction(a), Fraction(b))
    for n in range(1, 5)
    for a, b in (("7/4", "7/4"), ("1/2", "1/2"), ("1", "233/144"), ("5/3", "377/233"))
]


class TestStreamedRows:
    @pytest.mark.parametrize("kmax", [0, 3000])
    @pytest.mark.parametrize(
        "flags, fmt, decimal",
        [([], "table", None), (["--format", "csv"], "csv", None), (["--decimal", "6"], "table", 6)],
        ids=["table", "csv", "decimal"],
    )
    def test_stream_equals_stored_sequence(self, capsys, kmax, flags, fmt, decimal):
        for n, a, b in STREAMED:
            if a == b:
                argv = ["ball", "--n", str(n), "--a", str(a)]
            else:
                argv = ["ellipsoid", "--n", str(n), "--a", str(a), "--b", str(b)]
            code, out, _ = run(capsys, argv + ["--kmax", str(kmax), *flags])
            seq = capacities.ellipsoid_sequence(n, a, b, kmax)
            cli._render_rows(seq.ints, seq.scale, fmt, decimal)
            assert (code, out) == (0, capsys.readouterr().out)
            assert out.count("\n") == kmax + 2

    @pytest.mark.parametrize(
        "rows, message",
        [([0, 2, 1, 3], "c_2 = 1/2 breaks"), ([1, 2, 3, 4], "c_0 = 1/2 breaks")],
        ids=["decreasing", "nonzero-start"],
    )
    def test_broken_invariant_exits_4(self, capsys, monkeypatch, rows, message):
        monkeypatch.setattr(ellipsoid, "ellipsoid_values", lambda n, ia, ib: iter(rows))
        code, _, err = run(capsys, ["ellipsoid", "--n", "1", "--a", "1/2", "--b", "1", "--kmax", "3"])
        assert code == 4
        assert err.startswith("internal error: ") and message in err


# Prints the peak RSS in kB of one `echlens` job.  The kernel counts into a
# child's peak the memory of the process that spawned it, so the job is
# spawned from this bare interpreter, smaller than any job, not from pytest.
_PEAK_RSS = """
import os, sys
out = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "echlens.cli", *sys.argv[1:]],
                     os.environ, file_actions=out)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _peak_rss_kb(argv):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", _PEAK_RSS, *argv], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    code, kb = map(int, done.stdout.split())
    assert code == 0
    return kb


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in kB on Linux")
def test_streamed_rows_peak_near_a_no_work_job():
    # the whole sequence, stored before the first row, peaked 11 MB higher
    idle = _peak_rss_kb(["ball", "--a", "1", "--kmax", "0"])
    busy = _peak_rss_kb(["ellipsoid", "--n", "3", "--a", "1", "--b", "233/144", "--kmax", "200000"])
    assert busy - idle <= 2048


def test_closed_stdout_exits_1_quietly():
    # `echlens ellipsoid ... | head -1`: the reader leaves after one row,
    # long before the job has written its 200 001 rows
    src = os.path.dirname(os.path.dirname(cli.__file__))
    job = subprocess.Popen(
        [sys.executable, "-m", "echlens.cli", "ellipsoid", "--n", "1", "--a", "1",
         "--b", "3/2", "--kmax", "200000"],
        env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert job.stdout.readline() == b"k  c_k\n"
    job.stdout.close()
    err = job.stderr.read()
    job.stderr.close()
    assert (job.wait(timeout=60), err) == (1, b"")


class TestDomain:
    def test_both_routes_agree(self, capsys, domain_file):
        code, out, _ = run(capsys, ["domain", domain_file, "--kmax", "3", "--method", "both"])
        assert code == 0
        assert "DIFF: none" in out
        assert out.count("1  4") == 2

    def test_single_route(self, capsys, domain_file):
        code, out, _ = run(capsys, ["domain", domain_file, "--kmax", "3", "--method", "weights"])
        assert code == 0
        assert "[weights]" not in out
        assert out.splitlines()[1:] == ["0  0", "1  4", "2  5", "3  5"]

    def test_parse_error_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.dom"
        bad.write_text("n = 2\nvertices = (2,1) (0,x)\n")
        code, _, err = run(capsys, ["domain", str(bad), "--kmax", "2"])
        assert code == 2
        assert "line 2" in err

    @pytest.mark.parametrize("text", ["1/0", "3/00"])
    def test_zero_denominator_exit_2(self, capsys, tmp_path, text):
        bad = tmp_path / "bad.dom"
        bad.write_text(f"n = 2\nvertices = ({text},1) (0,1)\n")
        code, _, err = run(capsys, ["domain", str(bad), "--kmax", "2"])
        assert code == 2
        assert err == f"error: line 2, column 12: bad rational '{text}'\n"

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, ["domain", "/nonexistent.dom"])
        assert code == 2

    def test_thin_domain_routes_agree(self, capsys, thin_file):
        code, out, _ = run(capsys, ["domain", thin_file, "--kmax", "10", "--method", "both"])
        assert code == 0
        assert out.endswith("DIFF: none\n")

    def test_validation_error_prints_points(self, capsys, tmp_path):
        bad = tmp_path / "bad.dom"
        bad.write_text("n = 2\nvertices = (3,1) (0,2)\n")
        code, _, err = run(capsys, ["domain", str(bad), "--kmax", "2"])
        assert code == 2
        assert "first vertex (3,1)" in err
        assert "Fraction(" not in err

    def test_kmax_past_24_runs(self, capsys, ball_file):
        # the budget counts enumerated paths: B21 at kmax 25 is 3908 of them
        code, out, _ = run(capsys, ["domain", ball_file, "--kmax", "25", "--method", "both"])
        assert (code, out.splitlines()[-1]) == (0, "DIFF: none")

    def test_budget_exit_3(self, capsys, ball_file, small_path_budget):
        argv = ["domain", ball_file, "--method", "oracle", "--kmax"]
        code, out, err = run(capsys, argv + ["9"])
        assert (code, out) == (3, "")
        assert "budget" in err
        # a smaller run after the refused one still succeeds
        code, out, _ = run(capsys, argv + ["8"])
        assert (code, len(out.splitlines())) == (0, 10)

    @pytest.mark.parametrize(
        "command", [["domain"], ["blowup", "--delta", "1/4"]], ids=["domain", "blowup"]
    )
    def test_has_no_budget_flag(self, capsys, ball_file, command):
        with pytest.raises(SystemExit) as exc:
            cli.main([command[0], ball_file, *command[1:], "--budget", "3"])
        assert exc.value.code == 2


class TestWeights:
    def test_dump(self, capsys, domain_file):
        code, out, _ = run(capsys, ["weights", domain_file])
        assert code == 0
        assert out == "singular 2\nplain 1\n"

    def test_thin_domain(self, capsys, thin_file):
        code, out, _ = run(capsys, ["weights", thin_file])
        assert code == 0
        assert out == "singular 1\n" + "plain 1\n" * 99

    def test_peel_budget_exit_3(self, capsys, monkeypatch, thin_file):
        # the thin triangle (1,1)(0,100) has 99 plain weights
        monkeypatch.setattr(weights, "PEEL_BUDGET", 98)
        code, out, err = run(capsys, ["weights", thin_file])
        assert (code, out) == (3, "")
        assert err == "error: weight expansion: more plain weights than the budget of 98\n"
        monkeypatch.setattr(weights, "PEEL_BUDGET", 99)
        code, out, _ = run(capsys, ["weights", thin_file])
        assert (code, len(out.splitlines())) == (0, 100)

    def test_area_mismatch_is_internal_error(self, capsys, monkeypatch, domain_file):
        monkeypatch.setattr(weights, "_twice_area", lambda domain: 0)
        code, out, err = run(capsys, ["weights", domain_file])
        assert code == 4
        assert out == ""
        assert "does not match domain area" in err

    def test_bad_peeled_piece_is_internal_error(self, capsys, monkeypatch, domain_file):
        # a peel map that mirrors its piece carries it out of V_1
        real = weights._check_chain
        monkeypatch.setattr(
            weights, "_check_chain", lambda n, verts, s: real(n, [(y, x) for x, y in verts], s)
        )
        code, out, err = run(capsys, ["weights", domain_file])
        assert code == 4
        assert out == ""
        assert "peeled piece" in err


class TestCheck:
    def test_random_pass(self, capsys):
        code, out, _ = run(capsys, ["check", "--trials", "3", "--kmax", "5", "--seed", "7"])
        assert code == 0
        assert "seed 7" in out
        assert "PASS" in out

    def test_file(self, capsys, monkeypatch, tmp_path):
        # a FAIL ends with the failing domain as a domain file, which
        # `domain F --method both` replays
        monkeypatch.setattr(checks, "capacities_via_oracle", _perturbed_oracle)
        code, out, _ = run(capsys, ["check", "--trials", "1", "--kmax", "5"])
        assert code == 4
        lines = out.splitlines()
        assert lines[0] == f"seed {checks.DEFAULT_SEED}"
        assert lines[1].startswith("FAIL trial=1 k=1 ")
        replay = tmp_path / "fail.dom"
        replay.write_text("\n".join(lines[2:]) + "\n")
        drawn = checks.random_concave_domain(random.Random(checks.DEFAULT_SEED))
        assert parse_domain_file(replay.read_text()) == drawn
        code, out, _ = run(capsys, ["domain", str(replay), "--kmax", "5", "--method", "both"])
        assert code == 0
        assert out.endswith("DIFF: none\n")

    def test_corrupt_hook_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(checks, "capacities_via_oracle", _perturbed_oracle)
        code, out, _ = run(capsys, ["check", "--trials", "3", "--kmax", "5", "--seed", "7"])
        assert code == 4
        assert "FAIL" in out
        assert "k=1" in out

    def test_file_option_is_gone(self, capsys, ball_file):
        with pytest.raises(SystemExit) as exc:
            cli.main(["check", "--file", ball_file])
        assert exc.value.code == 2


def _perturbed_oracle(domain, kmax):
    values = list(capacities.capacities_via_oracle(domain, kmax).values)
    values[1] += 1
    return values


class TestBlowup:
    def test_values(self, capsys, ball_file):
        code, out, _ = run(capsys, ["blowup", ball_file, "--delta", "1/4", "--kmax", "1"])
        assert code == 0
        assert out.splitlines()[1:] == ["0  0", "1  3/2"]

    def test_bad_delta(self, capsys, ball_file):
        code, _, err = run(capsys, ["blowup", ball_file, "--delta", "2", "--kmax", "1"])
        assert code == 2


class TestObstruct:
    def test_no_obstruction(self, capsys, ball_file, big_ball_file):
        code, out, _ = run(capsys, ["obstruct", ball_file, big_ball_file, "--kmax", "3"])
        assert code == 0
        assert "no obstruction up to k=3" in out
        assert "NOTE:" in out

    def test_violation(self, capsys, ball_file, big_ball_file):
        code, out, _ = run(capsys, ["obstruct", big_ball_file, ball_file, "--kmax", "3"])
        assert code == 0
        assert "violation at k=1: 4 > 2" in out

    def test_has_no_budget_flag(self, capsys, ball_file, big_ball_file):
        # obstruct runs the packing route only, which has no budget
        with pytest.raises(SystemExit) as exc:
            cli.main(["obstruct", ball_file, big_ball_file, "--budget", "3"])
        assert exc.value.code == 2


class TestIndex:
    def test_ellipsoid(self, capsys):
        # e+^2 on B_2(1), read as E_2(1, 1+eps), where it has the least action
        code, out, _ = run(
            capsys, ["index", "ellipsoid", "--n", "2", "--a", "1", "--b", "1", "--r", "2", "--s", "0"]
        )
        assert code == 0
        assert out == f"I = {lattice_index(2, 1, perturbed(1, 1, 2), 2, 0)}\n" == "I = 2\n"

    def test_orbit(self, capsys, domain_file):
        code, out, _ = run(
            capsys,
            [
                "index", "orbit", domain_file,
                "--path", "start=(2,1); edges=[(-2,1)x1]; labels=[e]",
            ],
        )
        assert code == 0
        assert out == "I = 6\n"

    def test_orbit_with_integral_phi_plus(self, capsys, domain_file):
        # the example's phi_plus = 1 and phi_minus = 0: e+^2 on the empty
        # generator prices the chain (2,1) (0,1), and its floors are those of
        # phi_plus moved down by 1/6 < 1/2, that is 0 and 1, not 1 and 2
        code, out, _ = run(capsys, ["index", "orbit", domain_file, "--m-plus", "2"])
        expected = 2 * pick_lattice_count(2, [(2, 1), (0, 1)]) + 2 * 2
        expected += 2 * brute_floor_sum(Fraction(5, 6), 2)
        assert (code, out) == (0, f"I = {expected}\n") == (0, "I = 8\n")

    def test_bad_path_exit_2(self, capsys, domain_file):
        code, _, err = run(
            capsys, ["index", "orbit", domain_file, "--path", "start=(3,1); edges=[(-3,1)x1]"]
        )
        assert code == 2
        assert "first vertex (3,1)" in err

    @pytest.mark.parametrize(
        "text",
        ["edges=[(-2,1)x1, (-1,0)]; labels=[e]", "edges=[(-2,1)x1 junk]; labels=[e]"],
        ids=["edge-without-multiplicity", "trailing-junk"],
    )
    def test_unparsed_edge_text_exit_2(self, capsys, domain_file, text):
        code, out, err = run(
            capsys,
            ["index", "orbit", domain_file, "--m-plus", "2", "--path", f"start=(2,1); {text}"],
        )
        assert (code, out) == (2, "")
        assert "edge list" in err

    def test_orbit_on_an_ellipsoid_triangle(self, capsys, tmp_path):
        # E(1, 233/144): e+ and e- have index 2 and 4, as `index ellipsoid`
        path = tmp_path / "e1.dom"
        path.write_text("n = 1\nvertices = (1,1) (0,233/144)\n")
        for flag, expected in (("--m-plus", "I = 2\n"), ("--m-minus", "I = 4\n")):
            code, out, _ = run(capsys, ["index", "orbit", str(path), flag, "1"])
            assert (code, out) == (0, expected)

    @pytest.mark.parametrize("labels", ["e,,", ",e"], ids=["trailing-empty", "leading-empty"])
    def test_empty_label_exit_2(self, capsys, domain_file, labels):
        text = f"start=(2,1); edges=[(-2,1)x1]; labels=[{labels}]"
        code, out, err = run(
            capsys, ["index", "orbit", domain_file, "--m-plus", "2", "--path", text]
        )
        assert (code, out) == (2, "")
        assert "labels must be" in err

    def test_homology_error(self, capsys, domain_file):
        code, _, err = run(capsys, ["index", "orbit", domain_file, "--m-plus", "1"])
        assert code == 2
        assert "multiple" in err


class TestBijectivity:
    def test_true(self, capsys):
        code, out, _ = run(
            capsys, ["bijectivity", "--n", "2", "--a", "1", "--b", "233/144", "--layers", "2"]
        )
        assert code == 0
        assert out.splitlines()[0] == "index  r  s"
        assert out.splitlines()[1] == "0  0  0"
        assert out.splitlines()[-1] == "verdict: TRUE"

    def test_degenerate(self, capsys):
        # the ball is read as E_2(1, 1+eps), a nondegenerate ellipsoid
        code, out, _ = run(capsys, ["bijectivity", "--n", "2", "--a", "1", "--b", "1", "--layers", "2"])
        assert code == 0
        assert out.splitlines()[-1] == "verdict: TRUE"

    def test_far_ratio_true(self, capsys):
        code, out, _ = run(
            capsys,
            ["bijectivity", "--n", "1", "--a", "1009/1013", "--b", "70001/7", "--layers", "20"],
        )
        assert code == 0
        assert out.splitlines()[-1] == "verdict: TRUE"

    def test_extension_past_the_budget_exit_3(self, capsys):
        code, out, err = run(
            capsys, ["bijectivity", "--n", "1", "--a", "1", "--b", "10000001", "--layers", "1"]
        )
        assert code == 3
        assert out == ""
        assert "budget" in err


class TestDeterminism:
    def test_byte_identical(self, capsys, domain_file):
        runs = []
        for _ in range(2):
            code, out, err = run(capsys, ["domain", domain_file, "--kmax", "4", "--method", "both"])
            assert code == 0
            runs.append(out.encode() + err.encode())
        assert runs[0] == runs[1]


COMMANDS = ["ellipsoid", "ball", "domain", "weights", "check", "blowup", "obstruct", "index",
            "bijectivity"]
USAGE = [
    ["-h"],
    ["-h", "ball"],
    *([command, "--help"] for command in COMMANDS),
    ["index", "orbit", "--help"],
    [],
    ["bogus"],
    ["index"],
    ["ball", "--a", "1", "--bogus"],
    ["ball", "--a", "1", "extra"],
    ["domain", "F", "--bogus"],
    ["ball", "--a", "1", "--kmax", "x"],
    ["ball", "--a", "1", "--decimal", "2", "--format", "csv"],
    ["domain", "F", "--decimal", "2", "--format", "csv"],
]


def _parse_in_full(argv):
    """main's parsing and its --decimal check, on the parser of every command."""
    parser = cli.build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "decimal", None) is not None and args.format == "csv":
        parser.error("--decimal approximates the table format; --format csv is exact")


def _exit(capsys, parse, argv):
    with pytest.raises(SystemExit) as info:
        parse(argv)
    captured = capsys.readouterr()
    return info.value.code, captured.out, captured.err


class TestUsage:
    # main builds the named command's parser alone; its help, its usage
    # errors and those of the top-level parser match the full parser's
    @pytest.mark.parametrize("argv", USAGE, ids=lambda argv: " ".join(argv) or "no-command")
    def test_matches_the_full_parser(self, capsys, argv):
        expected = _exit(capsys, _parse_in_full, argv)
        assert _exit(capsys, cli.main, argv) == expected
        code, out, err = expected
        assert (code, bool(out), bool(err)) in ((0, True, False), (2, False, True))

    def test_top_level_errors_list_every_command(self, capsys):
        _, _, err = _exit(capsys, cli.main, ["ball", "--a", "1", "extra"])
        assert "{" + ",".join(COMMANDS) + "}" in err
        assert err.endswith("echlens: error: unrecognized arguments: extra\n")

    def test_argument_errors_name_the_type(self, capsys):
        _, _, err = _exit(capsys, cli.main, ["ball", "--a", "1", "--kmax", "x"])
        assert err.endswith("echlens ball: error: argument --kmax: invalid _nonneg_int value: 'x'\n")
