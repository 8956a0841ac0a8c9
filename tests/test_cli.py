import argparse
import contextlib
import dataclasses
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import seqproof
from machine_steps import count_machine_steps
from parent_layout import TAG_SC_CHALLENGE, ParentLayoutChallenges, today_layout
from qbf_sampler import seeded_true_formula
from seqproof import cli, noninteractive
from seqproof.cli import COMMANDS, build_parser, main
from seqproof.fiatshamir import MAGIC, MODE_FIAT_SHAMIR, MODE_INTERACTIVE, TAG_MODE, TAG_SC_CLAIM, TAG_SC_FORMULA
from seqproof.fiatshamir import TAG_SC_POLY, TAG_SC_PRIME
from seqproof.fiatshamir import InteractiveChallenges
from seqproof.fiatshamir import decode_element, decode_poly, encode_message, encode_u64, file_frames
from seqproof.field import next_prime_at_least
from seqproof.noninteractive import (
    fs_prove_tqbf,
    load_bundle,
    load_transcript,
    save_bundle,
    save_transcript,
    transcript_to_bytes,
)
from seqproof.qbf import eval_qbf_bruteforce, parse_qbf, to_qdimacs
from seqproof.shvdf import MAX_SPACE, MAX_STEPS, VdfParams, params_to_bytes
from seqproof.sumcheck import sumcheck_prove, sumcheck_verify

TRUE_FORMULA = "p cnf 2 2\na 1 0\ne 2 0\n1 2 0\n-1 -2 0\n"
FALSE_FORMULA = "p cnf 1 1\na 1 0\n1 0\n"
README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture
def formula_file(tmp_path):
    path = tmp_path / "alt.qdimacs"
    path.write_text(TRUE_FORMULA)
    return str(path)


def test_prove_then_verify_interactive(tmp_path, formula_file, capsys):
    # proving interactively still runs; its transcript has no file, and a
    # file that declares the interactive mode is refused
    assert main(["prove-tqbf", "--in", formula_file, "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "mode interactive" in out and "prime 37" in out
    transcript = tmp_path / "alt.transcript"
    assert main(["prove-tqbf", "--in", formula_file, "--seed", "3", "--out", str(transcript)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and not transcript.exists()
    interactive = today_layout(transcript_to_bytes(fs_prove_tqbf(parse_qbf(TRUE_FORMULA))), MODE_INTERACTIVE)
    transcript.write_bytes(interactive)
    assert main(["verify-tqbf", "--in", formula_file, "--transcript", str(transcript)]) == 1
    assert capsys.readouterr() == ("", "error: a transcript file must be a fiat-shamir proof, not interactive\n")


def test_prove_then_verify_fs(tmp_path, formula_file, capsys):
    transcript = str(tmp_path / "alt.transcript")
    assert main(["prove-tqbf", "--in", formula_file, "--fs", "--out", transcript]) == 0
    assert "mode fiat-shamir" in capsys.readouterr().out
    assert main(["verify-tqbf", "--in", formula_file, "--transcript", transcript]) == 0

    # flip one byte near the end (inside the last round polynomial)
    blob = bytearray((tmp_path / "alt.transcript").read_bytes())
    blob[-1] ^= 0x01
    (tmp_path / "alt.transcript").write_bytes(bytes(blob))
    assert main(["verify-tqbf", "--in", formula_file, "--transcript", transcript]) == 1


@pytest.mark.parametrize("n, prime", [(n, None) for n in range(1, 17)] + [(3, 1009)])
def test_prove_tqbf_writes_the_bytes_the_library_encodes(tmp_path, capsys, n, prime):
    formula = seeded_true_formula(n, 3, n)
    path, out = tmp_path / "f.qdimacs", tmp_path / "f.transcript"
    path.write_text(to_qdimacs(formula))
    with_prime = [] if prime is None else ["--prime", str(prime)]
    assert main(["prove-tqbf", "--in", str(path), "--out", str(out), "--fs", *with_prime]) == 0
    assert out.read_bytes() == transcript_to_bytes(fs_prove_tqbf(formula, prime))
    assert main(["verify-tqbf", "--in", str(path), "--transcript", str(out)]) == 0
    assert capsys.readouterr().out.count("accepted") == 1
    # an interactive transcript has no file: the CLI refuses before proving,
    # and the library writer refuses as the reader does
    out.unlink()
    assert main(["prove-tqbf", "--in", str(path), "--out", str(out), "--seed", str(n), *with_prime]) == 1
    assert capsys.readouterr().err.startswith("error: ") and not out.exists()
    with pytest.raises(ValueError, match="must be a fiat-shamir proof, not interactive"):
        transcript_to_bytes(sumcheck_prove(formula, prime, InteractiveChallenges(n)))


def test_prove_false_formula_fails(tmp_path, capsys):
    path = tmp_path / "false.qdimacs"
    path.write_text(FALSE_FORMULA)
    assert main(["prove-tqbf", "--in", str(path)]) == 1
    assert "no membership proof" in capsys.readouterr().err


def test_prove_true_formula_whose_chain_value_vanishes_at_the_smallest_prime(tmp_path, capsys):
    path = tmp_path / "f.qdimacs"
    path.write_text("p cnf 8 1\na 1 0\ne 2 3 0\na 4 0\ne 5 0\na 6 7 0\ne 8 0\n-8 -2 3 0\n")
    transcript = str(tmp_path / "f.transcript")
    assert main(["prove-tqbf", "--in", str(path), "--fs", "--out", transcript]) == 0
    assert "prime 773" in capsys.readouterr().out
    assert main(["verify-tqbf", "--in", str(path), "--transcript", transcript]) == 0
    assert "accepted" in capsys.readouterr().out


def test_prove_refuses_formula_over_the_cap_without_a_prime(tmp_path, capsys):
    path = tmp_path / "big.qdimacs"
    path.write_text("p cnf 17 1\ne " + " ".join(map(str, range(1, 18))) + " 0\n1 0\n")
    assert main(["prove-tqbf", "--in", str(path)]) == 1
    assert "capped at 16 variables" in capsys.readouterr().err


def test_prove_refuses_a_statement_over_the_prime_cap_by_name(tmp_path, capsys):
    path = tmp_path / "big.qdimacs"
    path.write_text("p cnf 3 10000\ne 1 2 3 0\n" + "1 -2 3 0\n" * 10000)
    for extra in ([], ["--prime", "1009"]):
        assert main(["prove-tqbf", "--in", str(path)] + extra) == 1
        err = capsys.readouterr().err
        assert "2^n*3^m for n = 3, m = 10000 exceeds the 2^40 prime cap" in err


@pytest.mark.parametrize("fs", [False, True])
def test_verify_rejects_a_composite_prime_with_a_verdict(tmp_path, formula_file, capsys, fs):
    # 38 is composite and larger than every coefficient of the p = 37 transcript
    transcript = str(tmp_path / "alt.transcript")
    assert main(["prove-tqbf", "--in", formula_file, "--out", transcript, "--fs"]) == 0
    save_transcript(transcript, dataclasses.replace(load_transcript(transcript), p=38))
    capsys.readouterr()
    if not fs:
        # the reader refuses a file's mode before it looks at the prime
        Path(transcript).write_bytes(today_layout(Path(transcript).read_bytes(), MODE_INTERACTIVE))
    assert main(["verify-tqbf", "--in", formula_file, "--transcript", transcript]) == 1
    expected = ("rejected (statement-mismatch)\n", "") if fs else (
        "", "error: a transcript file must be a fiat-shamir proof, not interactive\n")
    assert capsys.readouterr() == expected


# the same formula as CANONICAL, written with comments, blank lines, a short
# clause that parsing pads, and the universal run split over two lines
CANONICAL = "p cnf 3 3\na 1 2 0\ne 3 0\n1 3 3 0\n-1 2 -3 0\n-2 3 1 0\n"
NON_CANONICAL = "c spelled by hand\n\np cnf 3 3\na 1 0\n\na 2 0\ne 3 0\nc clauses\n1 3 0\n-1 2 -3 0\n\n-2 3 1 0\n"


@pytest.mark.parametrize("fs", [False, True])
def test_verify_reads_the_formula_not_its_spelling(tmp_path, capsys, fs):
    assert to_qdimacs(parse_qbf(NON_CANONICAL)) == CANONICAL and eval_qbf_bruteforce(parse_qbf(CANONICAL))
    canonical, spelled, transcript = tmp_path / "c.qdimacs", tmp_path / "s.qdimacs", str(tmp_path / "t.transcript")
    canonical.write_text(CANONICAL)
    spelled.write_text(NON_CANONICAL)
    if not fs:
        # an interactive transcript has no file: the verifier reads the
        # spelled formula in memory, with the prover's coins
        interactive = sumcheck_prove(parse_qbf(CANONICAL), None, InteractiveChallenges(1))
        assert sumcheck_verify(parse_qbf(NON_CANONICAL), interactive.p, interactive)
        wrong = parse_qbf(NON_CANONICAL.replace("-1 2 -3 0", "-1 -2 -3 0"))
        assert sumcheck_verify(wrong, interactive.p, interactive).reason == "statement-mismatch"
        return
    assert main(["prove-tqbf", "--in", str(canonical), "--out", transcript, "--fs"]) == 0
    capsys.readouterr()
    assert main(["verify-tqbf", "--in", str(spelled), "--transcript", transcript]) == 0
    assert capsys.readouterr() == ("accepted\n", "")
    # one literal differs: -1 2 -3 becomes -1 -2 -3
    spelled.write_text(NON_CANONICAL.replace("-1 2 -3 0", "-1 -2 -3 0"))
    assert main(["verify-tqbf", "--in", str(spelled), "--transcript", transcript]) == 1
    assert capsys.readouterr() == ("rejected (statement-mismatch)\n", "")


def test_custom_prime(formula_file, capsys):
    assert main(["prove-tqbf", "--in", formula_file, "--prime", "101"]) == 0
    assert "prime 101" in capsys.readouterr().out


@pytest.mark.parametrize("fs", [False, True])
def test_prove_refuses_prime_zero(formula_file, capsys, fs):
    # 0 used to stand for "no prime given" and prove at the default, 37
    assert main(["prove-tqbf", "--in", formula_file, "--prime", "0"] + ["--fs"] * fs) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "error: 0 is not prime" in captured.err


def test_vdf_cycle(tmp_path, capsys):
    pp = str(tmp_path / "pp.bin")
    proof = str(tmp_path / "opening.proof")
    assert (
        main(
            ["vdf", "setup", "--lambda", "8", "--log2t", "6", "--space", "8",
             "--seed", "cli-demo", "--pp", pp]
        )
        == 0
    )
    assert "steps 64" in capsys.readouterr().out
    assert main(["vdf", "eval", "--pp", pp, "--input", "1011"]) == 0
    out = capsys.readouterr().out
    assert "steps 64" in out
    value = int(next(line for line in out.splitlines() if line.startswith("value ")).split()[1])

    assert main(["vdf", "open", "--pp", pp, "--input", "1011", "--proof", proof]) == 0
    out = capsys.readouterr().out
    assert "mode fiat-shamir" in out and f"value {value}" in out
    hashed = next(line for line in out.splitlines() if line.startswith("challenge ")).split()[1]
    assert main(["vdf", "verify", "--proof", proof]) == 0
    assert "accepted" in capsys.readouterr().out
    # a hashed challenge is held to the caller's too, when one is given
    assert main(["vdf", "verify", "--proof", proof, "--challenge", hashed]) == 0
    assert "accepted" in capsys.readouterr().out
    assert main(["vdf", "verify", "--proof", proof, "--challenge", str(int(hashed) ^ 1)]) == 1
    assert capsys.readouterr().out == "rejected (challenge-mismatch)\n"

    # optional cross-checks against the statement the caller expects
    assert main(["vdf", "verify", "--proof", proof, "--pp", pp, "--input", "1011"]) == 0
    assert main(["vdf", "verify", "--proof", proof, "--input", "1010"]) == 1
    assert "input-mismatch" in capsys.readouterr().out
    other = str(tmp_path / "other.bin")
    assert main(["vdf", "setup", "--lambda", "8", "--log2t", "6", "--space", "8",
                 "--seed", "other", "--pp", other]) == 0
    capsys.readouterr()
    assert main(["vdf", "verify", "--proof", proof, "--pp", other]) == 1
    assert capsys.readouterr().out == "rejected (parameter-mismatch)\n"

    # explicit challenge takes the interactive path
    assert (
        main(["vdf", "open", "--pp", pp, "--input", "1011", "--challenge", "60",
              "--proof", proof])
        == 0
    )
    assert "mode interactive" in capsys.readouterr().out
    assert main(["vdf", "verify", "--proof", proof, "--challenge", "60"]) == 0
    capsys.readouterr()

    # the prover's recorded coin is not the verifier's: without one of its
    # own, or with another, the verifier rejects
    assert main(["vdf", "verify", "--proof", proof]) == 1
    assert capsys.readouterr().out == "rejected (no-verifier-challenge)\n"
    for coin in ("59", "61"):
        assert main(["vdf", "verify", "--proof", proof, "--challenge", coin]) == 1
        assert capsys.readouterr().out == "rejected (challenge-mismatch)\n"

    # a bundle that decodes but fails verification prints its verdict
    bundle = load_bundle(proof)
    save_bundle(proof, dataclasses.replace(bundle, output_value=bundle.output_value ^ 1))
    capsys.readouterr()
    assert main(["vdf", "verify", "--proof", proof, "--challenge", "60"]) == 1
    assert capsys.readouterr().out == "rejected (output-mismatch)\n"
    save_bundle(proof, bundle)

    # tampering any byte of the proof file is caught
    raw = bytearray((tmp_path / "opening.proof").read_bytes())
    raw[-1] ^= 0xFF
    (tmp_path / "opening.proof").write_bytes(bytes(raw))
    assert main(["vdf", "verify", "--proof", proof, "--challenge", "60"]) == 1


def test_vdf_open_bad_challenge(tmp_path, capsys):
    pp = str(tmp_path / "pp.bin")
    main(["vdf", "setup", "--lambda", "8", "--log2t", "6", "--space", "8",
          "--seed", "cli-demo", "--pp", pp])
    capsys.readouterr()
    rc = main(["vdf", "open", "--pp", pp, "--input", "1", "--challenge", "2",
               "--proof", str(tmp_path / "x.proof")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_vdf_open_refuses_an_out_of_window_challenge_before_running(tmp_path, capsys, monkeypatch):
    pp = str(tmp_path / "pp.bin")
    assert main(["vdf", "setup", "--lambda", "8", "--log2t", "6", "--space", "8",
                 "--seed", "cli-demo", "--pp", pp]) == 0
    stepped = count_machine_steps(monkeypatch)
    proof = str(tmp_path / "x.proof")
    for coin in ("55", "64", "-1"):
        assert main(["vdf", "open", "--pp", pp, "--input", "1", "--challenge", coin, "--proof", proof]) == 1
        assert "outside [56, 63]" in capsys.readouterr().err
    assert stepped == []
    assert main(["vdf", "open", "--pp", pp, "--input", "1", "--challenge", "60", "--proof", proof]) == 0
    assert sum(stepped) == 64


def test_vdf_attack_cli(tmp_path, capsys):
    pp = str(tmp_path / "pp.bin")
    proof = str(tmp_path / "forged.proof")
    main(["vdf", "setup", "--lambda", "8", "--log2t", "8", "--space", "8",
          "--seed", "forge-me", "--pp", pp])
    capsys.readouterr()
    assert main(["vdf", "attack", "--pp", pp, "--input", "0110", "--proof", proof]) == 0
    out = capsys.readouterr().out
    assert "forger steps 8 (honest evaluation takes 256)" in out
    assert "forged opening accepted" in out
    assert main(["vdf", "verify", "--proof", proof]) == 0


def test_vdf_outputs_wider_than_64_bits(tmp_path, capsys):
    # state bits default to lambda, so lambda=80 outputs take ten bytes
    pp = str(tmp_path / "pp.bin")
    proof = str(tmp_path / "opening.proof")
    forged = str(tmp_path / "forged.proof")
    assert main(["vdf", "setup", "--lambda", "80", "--log2t", "10", "--space", "16",
                 "--seed", "wide", "--pp", pp]) == 0
    assert main(["vdf", "open", "--pp", pp, "--input", "1011", "--proof", proof]) == 0
    assert main(["vdf", "verify", "--proof", proof, "--pp", pp, "--input", "1011"]) == 0
    assert main(["vdf", "attack", "--pp", pp, "--input", "1011", "--proof", forged]) == 0
    assert main(["vdf", "verify", "--proof", forged]) == 0
    assert "forged opening accepted" in capsys.readouterr().out


def test_vdf_params_with_a_huge_tape_are_refused(tmp_path, capsys):
    # a tape of 2^40 cells used to decode and end eval in MemoryError; setup
    # writes no tape, and one cell past the cap keeps an uncapped eval small
    pp = tmp_path / "pp.bin"
    assert main(["vdf", "setup", "--lambda", "8", "--log2t", "6", "--space", str(1 << 40),
                 "--seed", "s", "--pp", str(pp)]) == 1
    blob = params_to_bytes(VdfParams(8, 64, 8, 8, b"s"))
    # the space field is the fourth u64
    pp.write_bytes(blob[:24] + (MAX_SPACE + 1).to_bytes(8, "big") + blob[32:])
    assert main(["vdf", "eval", "--pp", str(pp), "--input", "1"]) == 1
    assert "space must be at most" in capsys.readouterr().err


def test_vdf_params_with_too_many_steps_are_refused(tmp_path, capsys):
    # 2^62 steps would run for years; one step past the cap keeps an
    # uncapped eval to milliseconds (this machine halts early and absorbs)
    pp = tmp_path / "pp.bin"
    blob = params_to_bytes(VdfParams(8, 64, 8, 8, b"s"))
    # the step count is the third u64
    pp.write_bytes(blob[:16] + (MAX_STEPS + 1).to_bytes(8, "big") + blob[24:])
    assert main(["vdf", "eval", "--pp", str(pp), "--input", "1"]) == 1
    assert "2^22" in capsys.readouterr().err
    assert main(["vdf", "setup", "--lambda", "24", "--log2t", "23", "--space", "8",
                 "--seed", "s", "--pp", str(pp)]) == 1


def test_vdf_setup_refuses_a_negative_log2_step_count(tmp_path, capsys):
    # 1 << -1 used to end setup with "negative shift count"
    assert main(["vdf", "setup", "--lambda", "8", "--log2t", "-1", "--space", "8",
                 "--seed", "s", "--pp", str(tmp_path / "pp.bin")]) == 1
    assert "error: log2 step count -1 is negative" in capsys.readouterr().err
    assert not (tmp_path / "pp.bin").exists()


def _readme_vdf_session() -> list[tuple[list[str], list[str]]]:
    """(argv, printed lines) for each `$ seqproof vdf ...` line of the README."""
    session, current = [], None
    for line in README.read_text().splitlines():
        if line.startswith("```") or line.startswith("$ "):
            current = None
        if line.startswith("$ seqproof vdf "):
            current = []
            session.append((line.split()[2:], current))
        elif current is not None:
            current.append(line)
    return session


def test_the_readme_vdf_session_prints_what_the_readme_shows(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    session = _readme_vdf_session()
    assert [argv[:2] for argv, _ in session] == [
        ["vdf", "setup"], ["vdf", "eval"], ["vdf", "open"], ["vdf", "verify"], ["vdf", "attack"], ["vdf", "verify"],
    ]
    for argv, printed in session:
        assert main(argv) == 0, argv
        assert capsys.readouterr().out.splitlines() == printed, argv


@pytest.mark.parametrize(
    "argv,message",
    [
        (["exp", "growth", "--lambda", "8", "--log2t", "4,,5", "--space", "8"], "error: --log2t: '' is not an integer\n"),
        (["exp", "growth", "--lambda", "8", "--log2t", "4,x", "--space", "8"], "error: --log2t: 'x' is not an integer\n"),
    ],
)
def test_comma_lists_refuse_a_bad_item_by_option(argv, message, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == message


def test_exp_min_vars(capsys):
    assert main(["exp", "min-vars", "--steps", "65536"]) == 0
    assert capsys.readouterr().out.strip() == "361"


def test_exp_growth_cli(capsys):
    rc = main(["exp", "growth", "--lambda", "8", "--log2t", "4,5", "--space", "8"])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_exp_soundness_cli_json(capsys):
    rc = main(["exp", "soundness", "--n", "1", "--m", "1", "--prime", "223",
               "--trials", "1000", "--json"])
    out = capsys.readouterr().out
    assert rc == 0
    assert '"name": "soundness"' in out


def test_exp_attack_cli(capsys):
    rc = main(["exp", "attack", "--lambda", "16", "--log2t", "10", "--space", "8",
               "--instances", "100"])
    assert rc == 0


def test_missing_file_reports_error(tmp_path, capsys):
    assert main(["prove-tqbf", "--in", str(tmp_path / "nope.qdimacs")]) == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_formula_and_file_bytes_report_errors(tmp_path, formula_file, capsys):
    bad_formula, junk = tmp_path / "bad.qdimacs", tmp_path / "junk"
    bad_formula.write_text("p cnf 1 1\ne 1 0\n2 0\n")
    junk.write_bytes(b"not a transcript")
    assert main(["prove-tqbf", "--in", str(bad_formula)]) == 1
    assert capsys.readouterr().err == "error: line 3: variable x2 out of range (n=1)\n"
    assert main(["verify-tqbf", "--in", formula_file, "--transcript", str(junk)]) == 1
    assert capsys.readouterr().err == "error: bad magic header\n"
    assert main(["vdf", "verify", "--proof", str(junk)]) == 1
    assert capsys.readouterr().err == "error: bad magic header\n"


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_exp_parallel_is_an_unknown_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["exp", "parallel", "--vars", "4"])
    assert exc.value.code == 2
    assert "invalid choice: 'parallel'" in capsys.readouterr().err


def _parse(parser, argv):
    """The parse result of argv, or the exit code; with what was printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parser.parse_args(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def _argv_corpus():
    corpus = [[], ["-h"], ["bogus"], ["vdf"], ["vdf", "bogus"], ["vdf", "-h"], ["exp"], ["exp", "-h"],
              ["--help", "vdf", "verify"], ["prove-tqbf", "--in", "f", "--fs", "--seed", "3"],
              # a retired command names no row, so both parsers refuse it alike
              ["exp", "parallel"], ["exp", "parallel", "-h"], ["exp", "parallel", "--vars", "x"]]
    for words, _, _, arguments in COMMANDS:
        required = [a for flag, kw in arguments if kw.get("required") for a in (flag, "1")]
        corpus += [[*words, "-h"], [*words, *required], [*words, *required, "extra"],
                   [*words, *required, "--bogus", "1"]]
        if required:
            corpus.append([*words, *required[:-2]])
        corpus += [[*words, *required, flag, "x"] for flag, kw in arguments if kw.get("type") is int][:1]
    return corpus


@pytest.mark.parametrize("argv", _argv_corpus(), ids=" ".join)
def test_the_kept_parser_parses_like_a_fresh_one(argv):
    # main reuses one parser per process, so a parse must leave nothing behind
    # in it: two parses with the kept parser and one with a fresh build agree
    kept = build_parser()
    assert _parse(kept, argv) == _parse(kept, argv) == _parse(build_parser.__wrapped__(), argv)


def test_command_errors_keep_their_wording():
    # what argparse printed before the table, which a metavar on the whole
    # table's subcommands would change
    for argv, message in (
        ([], "error: the following arguments are required: command\n"),
        (["bogus"], "error: argument command: invalid choice: 'bogus' (choose from"),
        (["vdf"], "error: the following arguments are required: vdf_command\n"),
        (["exp", "bogus"], "error: argument exp_command: invalid choice: 'bogus' (choose from"),
        (["exp", "min-vars", "--steps", "1", "extra"], "usage: seqproof [-h] {prove-tqbf,verify-tqbf,vdf,exp} ...\n"),
    ):
        code, out, err = _parse(build_parser(), argv)
        assert code == 2 and out == "" and message in err


def test_main_builds_the_parser_once_per_process(tmp_path, formula_file, monkeypatch):
    transcript = str(tmp_path / "t")
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **kw: built.append(kw.get("prog")) or init(self, *a, **kw))
    build_parser.cache_clear()  # as in a process that has not called main yet
    assert main(["prove-tqbf", "--in", formula_file, "--fs", "--out", transcript]) == 0
    assert len(built) == 14  # the root, the two groups and the eleven commands
    built.clear()
    assert main(["verify-tqbf", "--in", formula_file, "--transcript", transcript]) == 0
    assert built == []


# spellings the corpus above leaves out: an attached value, an abbreviated
# option, a repeated option, the end-of-options marker, a negative number
MORE_ARGV = [
    ["verify-tqbf", "--in=f", "--transcript", "t"],
    ["verify-tqbf", "--in", "f", "--tr", "t"],
    ["verify-tqbf", "--in", "f", "--in", "g", "--transcript", "t"],
    ["verify-tqbf", "--in", "f", "--transcript", "t", "--"],
    ["prove-tqbf", "--", "--in", "f"],
    ["prove-tqbf", "--in", "f", "--prime", "-7"],
    ["vdf", "verify", "--proof=p", "--pp", "-1"],
]


def _main_parse(argv):
    """What main parses argv to, with a fresh parser whose handlers only
    record: the exit code, or (handler, namespace); with what was printed."""
    parser, seen = build_parser.__wrapped__(), []
    for command in parser.command_parsers.values():
        handler = command.get_default("func")
        command.set_defaults(func=lambda args, handler=handler: seen.append((handler, vars(args))) or 0)
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "build_parser", lambda: parser)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                result = main(argv)
            except SystemExit as exc:
                result = exc.code
    return (seen[0] if seen else result), out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", _argv_corpus() + MORE_ARGV, ids=" ".join)
def test_main_parses_like_the_whole_tree(argv):
    # main goes straight to the named command's parser; what it prints and
    # what the handler reads must be what the whole tree gives
    got, out, err = _main_parse(argv)
    want, want_out, want_err = _parse(build_parser.__wrapped__(), argv)
    assert (out, err) == (want_out, want_err)
    if isinstance(want, dict):
        handler, namespace = got
        assert handler is want["func"]
        # the tree adds only the command words it chose
        assert {key for key in want if key not in namespace} <= {"command", "vdf_command", "exp_command"}
        assert {key: want[key] for key in namespace if key != "func"} == {
            key: value for key, value in namespace.items() if key != "func"
        }
    else:
        assert got == want


def test_verify_tqbf_parses_a_formula_the_transcript_carries_once(tmp_path, monkeypatch, capsys):
    parsed = []
    for module in (cli, noninteractive):
        monkeypatch.setattr(module, "parse_qbf", lambda text, parse=parse_qbf: parsed.append(text) or parse(text))
    canonical, spelled, transcript = tmp_path / "c.qdimacs", tmp_path / "s.qdimacs", tmp_path / "t.transcript"
    canonical.write_text(CANONICAL)
    transcript.write_bytes(transcript_to_bytes(fs_prove_tqbf(parse_qbf(CANONICAL))))
    # the same formula spelled by hand has the payload as its canonical text;
    # a formula one literal away does not, so the payload is parsed too
    for text, calls, printed in (
        (CANONICAL, 1, "accepted\n"),
        (NON_CANONICAL, 1, "accepted\n"),
        (NON_CANONICAL.replace("-1 2 -3 0", "-1 -2 -3 0"), 2, "rejected (statement-mismatch)\n"),
    ):
        spelled.write_text(text)
        parsed.clear()
        main(["verify-tqbf", "--in", str(spelled), "--transcript", str(transcript)])
        assert capsys.readouterr() == (printed, "")
        assert len(parsed) == calls, text


def _main_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def test_verify_tqbf_on_a_flipped_formula_payload_decodes_as_without_the_formula(tmp_path, monkeypatch):
    # every bit of the payload: main must answer as the path that decodes the
    # file on its own, then verifies
    path, transcript = tmp_path / "f.qdimacs", tmp_path / "t.transcript"
    path.write_text(CANONICAL)
    data = transcript_to_bytes(fs_prove_tqbf(parse_qbf(CANONICAL)))
    frames = file_frames(data)
    tag, payload = frames[2]
    assert tag == TAG_SC_FORMULA
    start = len(MAGIC) + len(b"".join(encode_message(*frame) for frame in frames[:2])) + 5
    assert data[start : start + len(payload)] == payload
    decode = noninteractive.transcript_from_bytes
    argv = ["verify-tqbf", "--in", str(path), "--transcript", str(transcript)]
    outcomes = set()
    for bit in range(8 * len(payload)):
        flipped = bytearray(data)
        flipped[start + bit // 8] ^= 0x80 >> (bit % 8)
        transcript.write_bytes(bytes(flipped))
        got = _main_captured(argv)
        with monkeypatch.context() as patch:
            patch.setattr(noninteractive, "transcript_from_bytes", lambda data, formula=None: decode(data))
            want = _main_captured(argv)
        assert got == want, bit
        outcomes.add(got[2].split(":")[1] if got[2] else got[1])
    # a flipped digit can name another formula in range, which decodes
    assert outcomes == {" bad formula payload", " formula payload is not in canonical form\n",
                        "rejected (statement-mismatch)\n"}


def test_verify_tqbf_refuses_a_formula_over_the_cap_given_twice(tmp_path, capsys):
    # the --in file is the payload's own canonical text, so the decoder uses
    # the formula it is given; the variable cap must still refuse it
    text = "p cnf 17 1\ne " + " ".join(map(str, range(1, 18))) + " 0\n1 1 1 0\n"
    assert to_qdimacs(parse_qbf(text)) == text
    path, transcript = tmp_path / "big.qdimacs", tmp_path / "big.transcript"
    path.write_text(text)
    transcript.write_bytes(MAGIC + b"".join(encode_message(tag, payload) for tag, payload in (
        (TAG_MODE, b"fiat-shamir"), (TAG_SC_PRIME, encode_u64(1009)),
        (TAG_SC_FORMULA, text.encode()), (TAG_SC_CLAIM, encode_u64(1)))))
    assert main(["verify-tqbf", "--in", str(path), "--transcript", str(transcript)]) == 1
    assert capsys.readouterr() == (
        "", "error: formula has 17 variables; the protocol is capped at 16 variables\n")


def _u64_payload(tag: int, payload: bytes, p: int) -> bytes:
    """A sum-check payload in the u64 layout, which files used before
    elements took the prime's width: u64 claim and challenges, a 4-byte
    count and u64 coefficients."""
    if tag in (TAG_SC_CLAIM, TAG_SC_CHALLENGE):
        return encode_u64(decode_element(payload, p))
    if tag == TAG_SC_POLY:
        coeffs = decode_poly(payload, p)
        return len(coeffs).to_bytes(4, "big") + b"".join(map(encode_u64, coeffs))
    return payload


# a golden corpus formula and the digests its files at p = 37 were pinned to
# in the u64 layout: (interactive file with coin seed 1, Fiat-Shamir file)
U64_CORPUS_FORMULA = "p cnf 2 2\ne 1 2 0\n-1 2 2 0\n1 1 -2 0\n"
U64_FILE_DIGESTS = (
    "d12e648f9afb712f22ce8028a9534c1e429d57e7b425b4af1c4766345d18c2bf",
    "51eda16190b0e67f71f82392014b5640cac8610cc55b890c5107159408c43775",
)


@pytest.mark.parametrize("p", [37, next_prime_at_least((1 << 32) + 1)])
def test_verify_tqbf_refuses_files_in_the_u64_layout(tmp_path, capsys, p):
    formula = parse_qbf(U64_CORPUS_FORMULA)
    files = []
    for coins in (InteractiveChallenges(1), None):
        source = ParentLayoutChallenges(p, coins, lambda tag, payload: _u64_payload(tag, payload, p))
        sumcheck_prove(formula, p, source)
        files.append(source.file_bytes())
    if p == 37:  # the rebuilt files are the u64 layout's own bytes
        assert tuple(hashlib.sha256(data).hexdigest() for data in files) == U64_FILE_DIGESTS
    # the challenge frames fail framing; without them, a u64 claim is too
    # wide below 2^32, and above it the 4-byte count is
    refusal = "expected a 1-byte field element, got 8 bytes" if p == 37 else "polynomial length mismatch"
    path, transcript = tmp_path / "f.qdimacs", tmp_path / "old.transcript"
    path.write_text(U64_CORPUS_FORMULA)
    for data in files:
        transcript.write_bytes(data)
        assert main(["verify-tqbf", "--in", str(path), "--transcript", str(transcript)]) == 1
        assert capsys.readouterr() == ("", "error: unregistered message tag 0x6\n")
    transcript.write_bytes(today_layout(files[1], MODE_FIAT_SHAMIR))
    assert main(["verify-tqbf", "--in", str(path), "--transcript", str(transcript)]) == 1
    assert capsys.readouterr() == ("", f"error: {refusal}\n")


def test_the_module_runs_as_a_program_reading_sys_argv(tmp_path, capsys):
    # main(None) reads sys.argv; run the module as `python -m seqproof.cli`
    env = dict(os.environ, PYTHONPATH=str(Path(seqproof.__file__).parents[1]))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "seqproof.cli", *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=60)

    (tmp_path / "f.qdimacs").write_text(TRUE_FORMULA)
    assert run("prove-tqbf", "--in", "f.qdimacs", "--fs", "--out", "f.transcript").returncode == 0
    done = run("verify-tqbf", "--in", "f.qdimacs", "--transcript", "f.transcript")
    assert (done.returncode, done.stdout, done.stderr) == (0, "accepted\n", "")
    done = run("--help")
    assert done.returncode == 0 and done.stdout.startswith("usage: seqproof [-h]")
    done = run("frobnicate")
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2 and done.returncode == 2
    assert done.stdout == "" and done.stderr == capsys.readouterr().err
