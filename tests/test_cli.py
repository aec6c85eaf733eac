import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from genjac import groups, params_from_text, params_to_text, run_benchmark
from genjac.bench import CSV_HEADER
from genjac.cli import main

PAIRING_OUTPUT = """\
point: 5;3 (order 3)
pairing order: 12
group-law value: 10,5
miller value: 10,5
agreement: true
reduced value: 5,8 (exponent 10)
"""

VERIFY_OUTPUT = """\
params: p=11 seed=7 prng=mt19937
orders: curve 12 = 2^2 * 3; extended 144 = 2^4 * 3^2; units 120 = 2^3 * 3 * 5
cocycle relations: 100 checks, 0 failures (7 draws skipped)
group axioms: 200 checks, 0 failures (5 draws skipped)
pairing cross-check: 5 checks, 0 failures
all checks passed
"""

ATTACK_OUTPUT = """\
group: extension of E(F_11) by Gm(F_11^2) [generalized-jacobian(8,3;4,3 ; 6,4;10,1)]
generator: 9;10|6,8 (order 90 = 2 * 3^2 * 5)
secret: 45
target: 0;0|5,10
transcript:
  projected-to-A: prime 2
  bsgs: order 2, 2 baby steps
  pohlig-hellman-prime(2,1): residue 1 mod 2
  projected-to-A: prime 3
  bsgs: order 3, 2 baby steps
  pohlig-hellman-prime(3,1): residue 0 mod 3
  crt: exponent 3 mod 6
  pulled-back-to-B: prime 3
  bsgs: order 3, 2 baby steps
  pohlig-hellman-prime(3,1): residue 1 mod 3
  pulled-back-to-B: prime 5
  bsgs: order 5, 3 baby steps
  pohlig-hellman-prime(5,1): residue 2 mod 5
  crt: exponent 7 mod 15
  crt: exponent 45 mod 90
recovered: 45 mod 90
verified: true
"""


def test_gen_params_stdout(toy, capsys):
    assert main(["gen-params", "--p", "11", "--seed", "7"]) == 0
    assert capsys.readouterr().out == params_to_text(toy)


def test_gen_params_to_file(toy, tmp_path, capsys):
    out = tmp_path / "p.txt"
    assert main(["gen-params", "--p", "11", "--seed", "7", "--out", str(out)]) == 0
    assert out.read_text() == params_to_text(toy)
    assert capsys.readouterr().out == f"wrote {out}\n"


def test_verify_passes(params_file, capsys):
    assert main(["verify", "--params", params_file, "--checks", "30",
                 "--pairing-checks", "5", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "0 failures" in out
    assert out.endswith("all checks passed\n")


def test_verify_pinned_output(params_file, capsys, readme):
    # the README transcript: it pins the samplers' draw order and skip counts
    assert main(["verify", "--params", params_file, "--checks", "50",
                 "--pairing-checks", "5", "--seed", "3"]) == 0
    assert capsys.readouterr().out == VERIFY_OUTPUT
    assert ("$ genjac verify --params params.txt --checks 50 --pairing-checks 5 --seed 3\n"
            f"{VERIFY_OUTPUT}") in readme


def test_pairing_pinned_output(params_file, capsys, readme):
    assert main(["pairing", "--params", params_file, "--point", "5;3"]) == 0
    assert capsys.readouterr().out == PAIRING_OUTPUT
    assert f'$ genjac pairing --params params.txt --point "5;3"\n{PAIRING_OUTPUT}' in readme


def test_pairing_searches_its_point_once(params_file, capsys, monkeypatch):
    # one order search of P gives both the "point:" line and the pairing order m
    searched = []
    honest = groups.order_parts

    def recording(add, identity, x, multiple):
        searched.append(x.serialize())
        return honest(add, identity, x, multiple)

    monkeypatch.setattr(groups, "order_parts", recording)
    assert main(["pairing", "--params", params_file, "--point", "5;3"]) == 0
    assert capsys.readouterr().out == PAIRING_OUTPUT
    assert searched.count("5;3") == 1


def test_pairing_identity_point(params_file, capsys):
    assert main(["pairing", "--params", params_file, "--point", "inf"]) == 0
    out = capsys.readouterr().out
    assert "group-law value: 1,0" in out
    assert "agreement: true" in out


def test_pairing_bad_point(params_file, capsys):
    assert main(["pairing", "--params", params_file, "--point", "5;4"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["pairing", "--params", params_file, "--point", "5;3;1"]) == 2
    assert capsys.readouterr().err == "error: bad point record '5;3;1'\n"
    # 16 = 5 mod 11, so this would otherwise answer for the point 5;3
    assert main(["pairing", "--params", params_file, "--point", "16;3"]) == 2
    assert capsys.readouterr().err == "error: coefficients must lie in [0, 11), got '16'\n"


def test_attack_pinned_output(params_file, capsys, readme):
    assert main(["attack", "--params", params_file, "--seed", "5"]) == 0
    assert capsys.readouterr().out == ATTACK_OUTPUT
    assert f"$ genjac attack --params params.txt --seed 5\n{ATTACK_OUTPUT}" in readme


def test_attack_deterministic(params_file, capsys):
    assert main(["attack", "--params", params_file, "--seed", "123"]) == 0
    first = capsys.readouterr().out
    assert main(["attack", "--params", params_file, "--seed", "123"]) == 0
    assert capsys.readouterr().out == first
    assert "verified: true" in first


def test_seed_comes_only_from_the_flag(params_file, capsys, monkeypatch):
    # the environment selects nothing: --seed, else 0
    monkeypatch.setenv("GENJAC_SEED", "abc")
    assert main(["attack", "--params", params_file, "--seed", "5"]) == 0
    assert capsys.readouterr().out == ATTACK_OUTPUT
    assert main(["verify", "--params", params_file, "--checks", "5"]) == 0
    unseeded = capsys.readouterr().out
    assert main(["verify", "--params", params_file, "--checks", "5", "--seed", "0"]) == 0
    assert capsys.readouterr().out == unseeded


def test_attack_explicit_secret(params_file, capsys):
    assert main(["attack", "--params", params_file, "--seed", "5",
                 "--secret", "31"]) == 0
    out = capsys.readouterr().out
    assert "secret: 31" in out
    assert "recovered: 31 mod 90" in out


def test_attack_secret_out_of_range(params_file, capsys):
    assert main(["attack", "--params", params_file, "--seed", "5",
                 "--secret", "90"]) == 2
    assert "secret must lie in" in capsys.readouterr().err


def test_attack_refuses_prime_beyond_bsgs_bound(tmp_path, capsys):
    # near 2^60 the generator's order (seed 1) has the prime 43049969373331031 > 2^40
    path = str(tmp_path / "big.txt")
    assert main(["gen-params", "--p", "1119299203706606807", "--seed", "1", "--out", path]) == 0
    capsys.readouterr()
    assert main(["attack", "--params", path, "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: generator order has prime 43049969373331031 "
                            f"above the baby-step bound {2**40}\n")


# y^2 = x^3 + 2x + 3 over F_103, #E = 108 = 2^2 * 3^3: an ordinary curve, off the toy family
ORDINARY_P103 = Path(__file__).parent / "data" / "ordinary-p103.txt"
# y^2 = x^3 + x + 1 over F_101 with F_101^2 = F_101[u]/(u^2 + u + 1), #E = 105 = 3 * 5 * 7:
# p = 1 mod 4 and a modulus polynomial with a middle term, unlike every other file here
ORDINARY_P101 = Path(__file__).parent / "data" / "ordinary-p101.txt"
# the ordinary curves' files and the point pairing is run at: 102;0 has order 2,
# 6;18 order 105, as E(F_101) has no point of order 2
ORDINARY_FILES = {"ordinary-p103": (ORDINARY_P103, "102;0"), "ordinary-p101": (ORDINARY_P101, "6;18")}


def test_ordinary_curve_through_the_cli(capsys, readme):
    text, path = ORDINARY_P103.read_text(), str(ORDINARY_P103)
    assert params_to_text(params_from_text(text)) == text
    assert main(["verify", "--params", path, "--seed", "1"]) == 0
    out = capsys.readouterr().out
    # the file names no seed, so the header names none
    assert out.startswith("params: p=103\norders: ")
    assert out.endswith("\nall checks passed\n")
    assert main(["attack", "--params", path, "--seed", "1"]) == 0
    assert "verified: true" in capsys.readouterr().out.splitlines()
    assert main(["bench", "--params", path, "--trials", "5", "--bits", "16"]) == 0
    assert capsys.readouterr().out.startswith(CSV_HEADER + "\n")
    # ord(M - N) = 1350 carries 5^2, which does not divide p^2 - 1 = 10608, so
    # the two values are compared but have no reduced representative
    assert main(["pairing", "--params", path, "--point", "102;0"]) == 0
    captured = capsys.readouterr()
    expected = (
        "point: 102;0 (order 2)\n"
        "pairing order: 1350\n"
        "group-law value: 19,36\n"
        "miller value: 19,36\n"
        "agreement: true\n"
        "reduced value: none (pairing order 1350 does not divide the unit group order 10608)\n"
    )
    assert captured.out == expected
    assert captured.err == ""
    assert f'$ genjac pairing --params tests/data/ordinary-p103.txt --point "102;0"\n{expected}' in readme


def test_bench_matches_library(toy, params_file, capsys):
    assert main(["bench", "--params", params_file, "--trials", "6",
                 "--bits", "6", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    expected = run_benchmark(toy, trials=6, scalar_bits=6, seed=2).csv()
    assert out == expected + "\n"


def test_bench_time_flag(params_file, capsys):
    assert main(["bench", "--params", params_file, "--trials", "5",
                 "--bits", "5", "--seed", "1", "--time"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert not lines[1].endswith(",")


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["attack"])  # missing --params
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def test_verify_check_counts_are_bounded(params_file, capsys):
    # a verify that checks nothing must not report "all checks passed"
    for flag, value, low in (("--checks", "0", 1), ("--checks", "-3", 1),
                             ("--checks", "abc", 1), ("--pairing-checks", "-1", 0)):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--params", params_file, flag, value])
        assert exc.value.code == 1
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert errors == [f"genjac verify: error: argument {flag}: "
                          f"expected an integer >= {low}, got {value!r}"]
    assert main(["verify", "--params", params_file, "--checks", "1",
                 "--pairing-checks", "0", "--seed", "1"]) == 0
    assert "pairing cross-check: 0 checks, 0 failures" in capsys.readouterr().out


def test_bench_sizes_are_bounded(params_file, capsys):
    # too few trials or too narrow a scalar is a usage error, not a failed run
    for flag, value, low in (("--trials", "3", 5), ("--trials", "abc", 5),
                             ("--bits", "1", 2), ("--bits", "-4", 2)):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--params", params_file, flag, value])
        assert exc.value.code == 1
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert errors == [f"genjac bench: error: argument {flag}: "
                          f"expected an integer >= {low}, got {value!r}"]
    assert main(["bench", "--params", params_file, "--trials", "5",
                 "--bits", "2", "--seed", "1"]) == 0
    assert capsys.readouterr().out.startswith(CSV_HEADER + "\n")


def test_missing_params_file_exit_2(capsys):
    assert main(["attack", "--params", "/no/such/file"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "/no/such/file" in captured.err
    assert captured.err.count("\n") == 1


def test_malformed_params_file_exit_2(toy, tmp_path, capsys):
    good = params_to_text(toy)
    rows = [
        ("p = 11\n", "missing parameter keys"),
        (good.replace("ext.degree = 2", "ext.degree = 3"), "line 7: ext.degree: write '2', not '3'"),
        (good.replace("ext.degree = 2", "ext.degree = two"), "line 7: ext.degree: write '2', not 'two'"),
        (good.replace("modulus.M = 8,3;", "modulus.M = 8,3,1;"), "line 9: modulus.M: too many coefficients"),
        (good.replace("order.curve = 12 = 2^2 * 3", "order.curve = 24 = 2^3 * 3"),
         "curve order is 12, claimed 24"),
        (good.replace("order.curve_ext = 144 = 2^4 * 3^2", "order.curve_ext = 132 = 2^2 * 3 * 11"),
         "curve order is 144, claimed 132"),
        (good.replace("modulus.M = 8,3;4,3", "modulus.M = 0;0"), "need x outside the base field"),
        (good.replace("modulus.M = 8,3;4,3", "modulus.M = 6,4;1,10"), "N != M and N != -M"),
        (good.replace("modulus.M = 8,3;4,3", "modulus.M = 8,3;4,3;1"),
         "line 9: modulus.M: bad point record '8,3;4,3;1'"),
        (good.replace("prng = mt19937", "prng = pcg64"), "line 2: prng: write 'mt19937', not 'pcg64'"),
        (good.replace("prng = mt19937", "prng = "), "line 2: prng: write 'mt19937', not ''"),
        (good.replace("p = 11\n", "p 11\n"), "line 4: expected 'key = value', got 'p 11'"),
        (good.replace("curve.a = 1", "curve.a = "), "line 5: curve.a: empty coefficient record"),
        # files that would load but not round-trip through params_to_text
        (good.replace("prng = mt19937\n", ""), "missing parameter keys: prng"),
        (good.replace("seed = 7\n", ""), "missing parameter keys: seed"),
        (good.replace("curve.a = 1", "curve.a = 12"), "line 5: curve.a: coefficients must lie in [0, 11), got '12'"),
        (good.replace("curve.b = 0", "curve.b = -11"), "line 6: curve.b: coefficients must lie in [0, 11), got '-11'"),
        (good.replace("ext.poly = 1,0,1", "ext.poly = 1,0,12"),
         "line 8: ext.poly: coefficients must lie in [0, 11), got '1,0,12'"),
        (good.replace("modulus.M = 8,3;4,3", "modulus.M = 19,3;4,3"),
         "line 9: modulus.M: coefficients must lie in [0, 11), got '19,3'"),
    ]
    # numbers that would drive unbounded work if they were computed with before
    # they were compared: each must end at once, quoted by its digit count
    claim, huge = 2**9941 - 1, 2**2203 - 1
    quick = [
        (good.replace("order.curve_ext = 144 = 2^4 * 3^2", "order.curve_ext = 144 = 2^1000000000000 * 3^2"),
         "line 12: order.curve_ext: bad factor 2^1000000000000 in factorization of 144"),
        (good.replace("order.curve = 12 = 2^2 * 3", f"order.curve = {claim} = {claim}"),
         "line 11: order.curve: bad factor <2993 digits>^1 in factorization of <2993 digits>"),
        (good.replace("p = 11\n", f"p = {huge}\n"), "line 4: p: prime <664 digits> exceeds the 2^61 bound"),
    ]
    bad = tmp_path / "bad.txt"
    for text, message in rows + quick:
        bad.write_text(text)
        start = time.perf_counter()
        assert main(["verify", "--params", str(bad)]) == 2
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert err.count("\n") == 1
        assert (text, message) not in quick or (elapsed < 0.1 and len(err) < 200), (message, elapsed)


def test_non_canonical_params_file_exit_2(tmp_path, capsys):
    # a padded seed loads to the same value but would be rewritten as 'seed = 1'
    assert main(["gen-params", "--p", "103", "--seed", "1", "--out", str(tmp_path / "p103.txt")]) == 0
    padded = tmp_path / "padded-seed.txt"
    padded.write_text((tmp_path / "p103.txt").read_text().replace("\nseed = 1\n", "\nseed = 01\n"))
    capsys.readouterr()
    assert main(["verify", "--params", str(padded), "--checks", "5"]) == 2
    assert capsys.readouterr().err == "error: line 3: seed: write '1', not '01'\n"


def test_gen_params_rejects_prime_beyond_bound(capsys):
    assert main(["gen-params", "--p", "2305843009213693967"]) == 2
    assert capsys.readouterr().err == "error: prime 2305843009213693967 exceeds the 2^61 bound\n"


def test_gen_params_rejects_p_1_mod_4(capsys):
    # u^2 + 1 is reducible when p = 1 mod 4; the toy family says so before the field does
    assert main(["gen-params", "--p", "13"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the toy family needs p = 3 mod 4\n"


SRC = str(Path(__file__).parent.parent / "src")


def _module_env(*unset):
    """The environment for a `python -m genjac.cli` child that imports this checkout's package."""
    env = {k: v for k, v in os.environ.items() if k not in unset}
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_141_quietly(unbuffered):
    # the read end is closed before the child starts, so its first write to the
    # pipe meets EPIPE: at main's flush when stdout is buffered, at the write
    # inside the command when it is not
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = _module_env("PYTHONUNBUFFERED")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        child = subprocess.run(
            [sys.executable, "-m", "genjac.cli", "gen-params", "--p", "11"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert child.returncode == 141
    assert child.stderr == b""


# the sweep's primes: 7 to 43 are all the primes p = 3 mod 4 in that range, and
# 2^61 - 1 is the largest the tool accepts, where a product of two coefficients
# reaches 122 bits
SWEEP_PRIMES = (7, 11, 19, 23, 31, 43, 103, 1019, 10007, 2**61 - 1)
# near 2^60, p - 1 and p + 1 each have a factor above the trial-division bound,
# and the generator's order (seed 1) has a prime beyond what BSGS can take
BEYOND_BSGS = 1119299203706606807
# the checks of `verify --checks 20 --seed 1` at p = 103 and at 1019: seed 1
# skips a draw at both, most seeds skip none, so a report whose draws stop
# following the seed reads differently
SEED_1_CHECKS = """\
cocycle relations: 40 checks, 0 failures (1 draws skipped)
group axioms: 80 checks, 0 failures (0 draws skipped)
pairing cross-check: 10 checks, 0 failures
all checks passed
"""


@pytest.mark.parametrize("source", [*SWEEP_PRIMES, *ORDINARY_FILES, BEYOND_BSGS], ids=str)
def test_cli_sweep(source, tmp_path, capsys):
    # each subcommand on gen-params' curve (seed 1) or on an ordinary curve's
    # file: attack recovers its secret, verify passes, pairing at a point (the
    # 2-torsion point 0;0 on y^2 = x^3 + x at every p) agrees with the Miller
    # loop, and bench prints its CSV
    def run(*args):
        status = main(list(args))
        return status, capsys.readouterr().out

    if source in ORDINARY_FILES:
        path, point = map(str, ORDINARY_FILES[source])
    else:
        status, out = run("gen-params", "--p", str(source), "--seed", "1")
        assert status == 0
        path, point = str(tmp_path / "params.txt"), "0;0"
        Path(path).write_text(out)
    status, out = run("attack", "--params", path, "--seed", "1")
    if source == BEYOND_BSGS:
        assert status == 2
    else:
        assert status == 0 and "verified: true" in out.splitlines()
        status, out = run("pairing", "--params", path, "--point", point)
        assert status == 0 and "agreement: true" in out.splitlines()
    assert run("verify", "--params", path, "--checks", "5")[0] == 0
    status, out = run("bench", "--params", path, "--trials", "5", "--bits", "16")
    assert status == 0 and out.splitlines()[:1] == [CSV_HEADER]
    if source in (103, 1019):
        # the curve and field hashes are id-based: they differ between two
        # fresh interpreters but not within one, so only two interpreters
        # show a seeded report that depends on them
        command = [sys.executable, "-m", "genjac.cli", "verify", "--params", path,
                   "--checks", "20", "--seed", "1"]
        runs = [subprocess.run(command, stdout=subprocess.PIPE, env=_module_env("PYTHONHASHSEED"),
                               timeout=60) for _ in range(2)]
        assert [child.returncode for child in runs] == [0, 0]
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stdout.decode().endswith(SEED_1_CHECKS)


def test_verify_names_failing_relation_and_triple(toy, params_file, capsys, skewed_cocycle):
    assert main(["verify", "--params", params_file, "--checks", "5",
                 "--pairing-checks", "1", "--seed", "1"]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "CHECKS FAILED"
    named = [line for line in lines if line.startswith("failed: ")]
    assert 1 <= len(named) <= 3
    match = re.fullmatch(r"failed: symmetry on \((\S+), (\S+), (\S+)\)", named[0])
    assert match, named[0]
    cocycle = toy.modulus_cocycle(ext=True)
    P, Q = (toy.ext_curve.parse_point(match.group(i)) for i in (1, 2))
    assert cocycle(P, Q) != cocycle(Q, P)
