"""A transcript file holds the prover's messages and nothing else.

Files in the parent layout carried a challenge frame after each round
polynomial and could declare the interactive mode, in which case
`verify-tqbf` replayed the coins the file's author wrote down: the
chosen-coins forger's file for a false formula was accepted.  Such files now
fail at framing, the forger's messages are refused under the interactive
mode, and under the Fiat-Shamir mode the verifier derives coins the forger
did not choose.
"""

import contextlib
import hashlib
import io

import pytest

from chosen_coins import forge
from parent_layout import ParentLayoutChallenges, today_layout
from qbf_sampler import seeded_false_formula, seeded_true_formula
from seqproof import cli
from seqproof.fiatshamir import MODE_FIAT_SHAMIR, MODE_INTERACTIVE, InteractiveChallenges, RecordedChallenges
from seqproof.qbf import parse_qbf, to_qdimacs
from seqproof.sumcheck import default_prime, sumcheck_prove, sumcheck_verify

FALSE_SHAPES = [(n, m) for n in range(1, 7) for m in range(1, 5)]
# a formula whose chain keeps every linearization, so today's provers send
# the parent layout's messages, and its files as the code of that layout
# wrote them: (interactive file with coin seed 1, Fiat-Shamir file)
CORPUS_FORMULA = "p cnf 2 2\ne 1 0\na 2 0\n1 2 0\n1 -2 0\n"
PARENT_FILE_DIGESTS = (
    "62903357be2e06083306b594b6a9cd8b417af958f4b3bfedee70b30a36e817d0",
    "1fdefbe0a03dc3183f5ed83dd89ab6dfdc46550e7a92a15b1005d98ee9a5ce66",
)
UNREGISTERED_CHALLENGE_TAG = "error: unregistered message tag 0x6\n"


def _verify_tqbf(tmp_path, formula, data: bytes) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of `verify-tqbf` on formula and data."""
    path, transcript = tmp_path / "f.qdimacs", tmp_path / "t.transcript"
    path.write_text(to_qdimacs(formula))
    transcript.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(["verify-tqbf", "--in", str(path), "--transcript", str(transcript)])
    return rc, out.getvalue(), err.getvalue()


def test_the_parent_layout_is_rebuilt_byte_for_byte():
    formula = parse_qbf(CORPUS_FORMULA)
    p = default_prime(formula)
    files = []
    for coins in (InteractiveChallenges(1), None):
        source = ParentLayoutChallenges(p, coins)
        sumcheck_prove(formula, p, source)
        files.append(hashlib.sha256(source.file_bytes()).hexdigest())
    assert tuple(files) == PARENT_FILE_DIGESTS


@pytest.mark.parametrize("n, m", FALSE_SHAPES)
def test_verify_tqbf_refuses_every_file_of_the_chosen_coins_forger(tmp_path, n, m):
    formula = seeded_false_formula(n, m, 10 * n + m)
    transcript, parent_file = forge(formula)
    # the forgery is real: replaying the forger's own coins accepts it
    assert transcript.claimed_value != 0
    assert sumcheck_verify(formula, transcript.p, transcript, RecordedChallenges(transcript.challenges))
    refusals = (
        (parent_file, "", UNREGISTERED_CHALLENGE_TAG),
        (today_layout(parent_file, MODE_INTERACTIVE), "",
         "error: a transcript file must be a fiat-shamir proof, not interactive\n"),
    )
    for data, out, err in refusals:
        assert _verify_tqbf(tmp_path, formula, data) == (1, out, err)
    rc, out, err = _verify_tqbf(tmp_path, formula, today_layout(parent_file, MODE_FIAT_SHAMIR))
    assert rc == 1 and out.startswith("rejected (") and err == ""


@pytest.mark.parametrize("n, m", FALSE_SHAPES)
def test_verify_tqbf_refuses_fiat_shamir_files_in_the_parent_layout(tmp_path, n, m):
    formula = seeded_true_formula(n, m, 10 * n + m)
    source = ParentLayoutChallenges(default_prime(formula))
    assert sumcheck_prove(formula, source.p, source).claimed_value != 0
    assert _verify_tqbf(tmp_path, formula, source.file_bytes()) == (1, "", UNREGISTERED_CHALLENGE_TAG)
