"""Byte-identity corpus: transcript and bundle files are pinned by SHA-256.

Refactors of the message schedule, the provers or the codecs must leave
these digests unchanged; a changed digest means a changed file format or a
changed Fiat-Shamir challenge.  The formulas are true and n <= 6.  Cheating
provers' transcripts are pinned with the reason each is rejected for, and
soundness reports by the digest of their JSON, which counts every trial's
verdict.  A transcript file is a Fiat-Shamir proof, so the interactive
conversations are pinned apart from any bytes, by what they hold.  Wide
formulas (m up to 23) pin the final block's 16- and 32-bit pattern fields,
and one digest pins what `verify-tqbf` prints for every one-bit flip and
truncation of a corpus file.  Delay-function runs pin `vdf eval`'s output
and the hashed-challenge bundle, `vdf attack` pins its output and forged
file, and one digest pins what `vdf verify` prints for every one-bit flip
and truncation of a bundle.
"""

import contextlib
import hashlib
import io
import random

import pytest

from qbf_sampler import seeded_true_formula
from seqproof import cli, sumcheck
from seqproof.fiatshamir import (
    TQBF_ORACLE,
    VDF_ORACLE,
    FiatShamirChallenges,
    InteractiveChallenges,
)
from seqproof.noninteractive import (
    VdfBundle,
    bundle_to_bytes,
    file_bytes,
    fs_vdf_open,
    fs_vdf_verify,
    transcript_to_bytes,
    vdf_challenge,
)
from seqproof.harness import exp_soundness
from seqproof.qbf import parse_qbf, to_qdimacs
from seqproof.shvdf import VdfParams, params_to_bytes, vdf_attack, vdf_eval, vdf_open, vdf_setup
from seqproof.sumcheck import cheat_prover, default_prime, sumcheck_prove, sumcheck_verify

CORPUS = (
    "p cnf 1 1\ne 1 0\n-1 -1 -1 0\n",
    "p cnf 2 2\ne 1 2 0\n-1 2 2 0\n1 1 -2 0\n",
    "p cnf 2 3\ne 1 2 0\n-1 2 -2 0\n-1 -2 2 0\n1 -2 -1 0\n",
    "p cnf 3 2\ne 1 2 0\na 3 0\n2 2 -3 0\n-2 1 -2 0\n",
    "p cnf 3 3\na 1 2 3 0\n2 1 -1 0\n-3 3 3 0\n-2 2 3 0\n",
    "p cnf 4 2\na 1 0\ne 2 0\na 3 4 0\n2 -2 -2 0\n4 -1 -2 0\n",
    "p cnf 4 4\ne 1 2 3 4 0\n-3 3 -4 0\n3 -2 1 0\n-3 2 3 0\n3 -2 3 0\n",
    "p cnf 5 3\na 1 0\ne 2 3 0\na 4 5 0\n-3 -4 1 0\n2 1 3 0\n-1 -3 -3 0\n",
    "p cnf 5 4\ne 1 2 3 0\na 4 5 0\n-1 -3 5 0\n-3 4 -5 0\n-4 2 4 0\n1 5 -3 0\n",
    "p cnf 6 2\ne 1 0\na 2 0\ne 3 0\na 4 0\ne 5 6 0\n3 -1 -4 0\n1 -3 1 0\n",
    "p cnf 6 3\na 1 0\ne 2 3 0\na 4 5 6 0\n2 3 -3 0\n5 -2 -3 0\n-3 -4 6 0\n",
    "p cnf 6 4\ne 1 2 3 0\na 4 5 6 0\n3 -2 1 0\n6 1 -1 0\n2 5 -2 0\n-3 -6 3 0\n",
)

# the Fiat-Shamir transcript file of each corpus formula
TRANSCRIPT_DIGESTS = (
    "3f118a1f8d224956319f9588ebf22e057b1143b9ee63166d95c97c57444b4681",
    "e9e58c06c665e437e483573832f1815561e9dc68a5874fd2ca4045562352fbc8",
    "5903f02f6e818a363e03e90f2852a4456c2d9d079b096048cf34c39311a9c00c",
    "e103170193518214244d0bbe531c9bc51d328870e51f8b87dab0d0ddbcc7ef0b",
    "91fc228cfa3cad8c1bbbd84ca9b99fbca5ffa969dcd950eff131d6191e12fa5c",
    "46113611067a1bc9b70547394a9bb6109435bcc4b7c1ac058646afaa66aa0428",
    "0e3cf4d194505f06cebac017f9cf03162dd72857b9c00ae03733cc4a014c78bf",
    "aa3f890b127ae89ac8347c867769225bd59d426641beef1717a47e64bee3c703",
    "973348b7490da98ea72ec522eebdafb1910a7d1f8c764794c6c5b4a0e30e3086",
    "7c8dcf01a8efb6a1c2accdefd05ceeb30609acb431aad452fc90c633b506957a",
    "7af2a4ec945d0d2f1e38095cf5ef4615e7441da57f231f6cfebe880c90871474",
    "e344b166854cb9e61b10948d00bc54ed49c6bc96fc0cb1b7cd6b084a29d6a108",
)

# (corpus index, strategy, verdict reason under interactive coins with seed =
# corpus index, digest of the Fiat-Shamir file and its verdict reason); the
# prover's own rng is random.Random(corpus index)
CHEAT_CASES = (
    (1, 'wrong-claim', 'final-check',
     'befb21f4aa0dc7c56af95f1b95cab1523d6d45973871bb89319492db3d0f1133', 'final-check'),
    (1, 'constant-poly', 'final-check',
     'f3ebdb7f7dbff9f62c18764eb3542d70b4748cfb3b2e53b82f7e13d8ea7bea3c', None),
    (1, 'random-round', 'round-check',
     'b44a5ebd28a050cb35c76fccab75f38a7d7f2dd70e13a4ec51180a0505328777', 'round-check'),
    (1, 'random-round(1)', 'round-check',
     '72e652024e0841bf3da7d1ad05f7e7836d462a2a5431fa30db503d2d7abf3903', 'round-check'),
    (4, 'wrong-claim', 'final-check',
     '6b1e20997a3ee417df39baafa14bdf3bf04d61b12c84be78b5a511fcf117c4fd', 'final-check'),
    (4, 'constant-poly', 'final-check',
     '55890f439a6692a9f2da2fa0ae2bc1de1b2772c38e2945407df8b1de153a89e4', 'final-check'),
    (4, 'random-round', 'round-check',
     '85ee645da5f9016d89c796a087b85ac4d795eedeab847c81d048194527ff3110', 'round-check'),
    (4, 'random-round(1)', 'round-check',
     'd7d191ef8cbe8465dbeb053d5f7d535f728dbff5559077da3bb3f5c881a7b2f9', 'round-check'),
    (7, 'wrong-claim', 'final-check',
     '007541c2290fa1f6af940707c921f02f15ba77a1be258a143f33ee67e3190da0', 'final-check'),
    (7, 'constant-poly', 'round-check',
     '6ec4472a1d25f1b8fe44eff7a1f707c58c8cf971aba4680ca42f4a99e1874d26', 'round-check'),
    (7, 'random-round', 'round-check',
     'ab9dd60c31ff4835e5b141d15682c4b040a0b6120918db0df2adabbf6beb3aff', 'round-check'),
    (7, 'random-round(1)', 'round-check',
     'a7055c8259496333ea0ae597685ef381a88b590aa9c2712bce3f70011860f1d4', 'round-check'),
)

GOLDEN = VdfParams(8, 16, 4, 8, b"golden")
LAMBDA16 = vdf_setup(16, 10, 32, "a1b2c3")

# (n, m, p, seed, digest of exp_soundness(n, m, p, trials=1000, seed=seed).to_json())
SOUNDNESS_REPORTS = (
    (1, 1, 223, 3, "4a7c628e66c681a54793f14a37c6e0e1d2813d32a13955a5e8697900693f80f0"),
    (1, 1, 223, 11, "1cf56edb10d0046b64704d38bcf9197e6f0cec485889f682d679d3bcd8917869"),
    (2, 2, 1009, 3, "085af8c4acf8d1139ae07fb43b4fd5423642dd7f667b95f437f8e6c036f23e29"),
    (2, 2, 1009, 11, "c2e9e4f7271b74886b7d413ca9dd508bfe79bf50a2ee703b8c9d733c53363a32"),
)

# (parameters, input, explicit challenge, digest of the hashed-challenge
# bundle, digest of the explicit-challenge bundle)
BUNDLE_CASES = (
    (GOLDEN, "101", 12,
     "a7bfd8a0a5402508c334ce92b6f531cfac685dfb786b7b20d9463cdf2b8b9b05",
     "30962c8c8f1efc4832694a009ccc0b91d6a32c79f1ca69a8a1a1d287f2712f5c"),
    (LAMBDA16, "1011", 1020,
     "307cd5b433d97cddcbda6920586687d00d70c2f0e762c935a8251afa04ef3fe8",
     "f3a4339654ba590f32cffedfb33b8a15993887446dfe9cade16d29443cea77db"),
)

# (parameters, input, forger's rng seed, digest of the forged bundle with the
# hashed challenge, built the way `vdf attack` builds it)
FORGED_CASES = (
    (GOLDEN, "101", 5, "614f521e2d72edea66f4a1889f7a27034fb48520ad508700ef7fa83cd82b20df"),
    (LAMBDA16, "1011", 7, "d73e219d78b8f89b2af08cd795c237655b3c764531fb4fae423f643b279af24c"),
)


def _digest(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def _cli(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _flips_and_cuts(data: bytes):
    """Every one-bit flip of data, then every proper prefix."""
    for bit in range(8 * len(data)):
        yield data[: bit // 8] + bytes([data[bit // 8] ^ 1 << bit % 8]) + data[bit // 8 + 1 :]
    for cut in range(len(data)):
        yield data[:cut]


@pytest.mark.parametrize("index", range(len(CORPUS)))
def test_transcript_bytes_pinned(index):
    formula = parse_qbf(CORPUS[index])
    p = default_prime(formula)
    coins = FiatShamirChallenges(TQBF_ORACLE)
    hashed = sumcheck_prove(formula, p, coins)
    assert hashed.claimed_value != 0
    # the hashed bytes are the file bytes after the mode message
    assert file_bytes(coins) == transcript_to_bytes(hashed)
    assert _digest(transcript_to_bytes(hashed)) == TRANSCRIPT_DIGESTS[index]


@pytest.mark.parametrize("case", CHEAT_CASES, ids=lambda case: f"{case[0]}-{case[1]}")
def test_cheating_transcript_bytes_pinned(case):
    index, strategy, interactive_reason, fs_digest, fs_reason = case
    formula = parse_qbf(CORPUS[index])
    p = default_prime(formula)
    interactive = cheat_prover(strategy, formula, p, InteractiveChallenges(index), random.Random(index))
    hashed = cheat_prover(strategy, formula, p, FiatShamirChallenges(TQBF_ORACLE), random.Random(index))
    got = (
        sumcheck_verify(formula, p, interactive).reason,
        _digest(transcript_to_bytes(hashed)),
        sumcheck_verify(formula, p, hashed).reason,
    )
    assert got == (interactive_reason, fs_digest, fs_reason)


# SHA-256 over repr(((p, claim, polys, challenges), verdict reason)) of each
# interactive CORPUS transcript, then of each interactive CHEAT_CASES
# transcript: the conversations themselves, whatever bytes encode them
INTERACTIVE_CONVERSATIONS_DIGEST = "ca1653b4850301dcdb951a95c4ef5434854fda6f51dde78dc4d61c38589212dd"


def test_interactive_conversations_pinned():
    digest = hashlib.sha256()

    def add(formula, p, transcript):
        t = transcript
        conversation = (t.p, t.claimed_value, t.polys, t.challenges)
        digest.update(repr((conversation, sumcheck_verify(formula, p, t).reason)).encode())

    for index, text in enumerate(CORPUS):
        formula = parse_qbf(text)
        p = default_prime(formula)
        add(formula, p, sumcheck_prove(formula, p, InteractiveChallenges(index)))
    for index, strategy, *_ in CHEAT_CASES:
        formula = parse_qbf(CORPUS[index])
        p = default_prime(formula)
        add(formula, p, cheat_prover(strategy, formula, p, InteractiveChallenges(index), random.Random(index)))
    assert digest.hexdigest() == INTERACTIVE_CONVERSATIONS_DIGEST


@pytest.mark.parametrize("index", range(len(BUNDLE_CASES)))
def test_bundle_bytes_pinned(index):
    pp, x, t, fs_digest, explicit_digest = BUNDLE_CASES[index]
    assert _digest(bundle_to_bytes(fs_vdf_open(pp, x))) == fs_digest
    explicit = VdfBundle(pp, x, vdf_eval(pp, x).value, t, vdf_open(pp, x, t), "interactive")
    assert _digest(bundle_to_bytes(explicit)) == explicit_digest


@pytest.mark.parametrize("index", range(len(FORGED_CASES)))
def test_forged_bundle_bytes_pinned(index):
    pp, x, seed, digest = FORGED_CASES[index]
    forgery = vdf_attack(pp, x, random.Random(seed))
    t = vdf_challenge(FiatShamirChallenges(VDF_ORACLE), pp, x, forgery.value)
    bundle = VdfBundle(pp, x, forgery.value, t, forgery.respond(t))
    assert fs_vdf_verify(bundle)
    assert _digest(bundle_to_bytes(bundle)) == digest


@pytest.mark.parametrize("case", SOUNDNESS_REPORTS, ids=lambda case: "-".join(map(str, case[:4])))
def test_soundness_report_bytes_pinned(case):
    n, m, p, seed, digest = case
    assert _digest(exp_soundness(n, m, p, trials=1000, seed=seed).to_json().encode()) == digest


# (n, m, digest of the Fiat-Shamir transcript) for seeded_true_formula(n, m, m)
WIDE_TRANSCRIPT_DIGESTS = (
    (2, 8, "fac63511ac426de21713fe7b68849294619fc30ac1aaaf5dafc760cfe5825273"),
    (2, 16, "6924a8fe849e2c92c2880cb483b0a18ba4edcb1ac8a2575f76c730f4f42f128a"),
    (2, 23, "a9148d9d0d9ebc7ba003306ab7ff6d8cb6d453448ed0d7c88d47be24aa23b5e3"),
    (3, 8, "534bec29b358a64f730b40add05da869db2d9a70d4e3dd621594bda8c1ecf040"),
    (3, 16, "e1b1e35f02e23cfdf2df3f6466af0a3e09ab9e5e09a1491ca3a9a24bdbf9ad24"),
    (3, 23, "99e3f6ff6991f864be8f0379d1536422506a3995550bc0db84baed3af19016ec"),
)


def test_wide_transcript_bytes_pinned(monkeypatch):
    widths = set()
    coordinate_sets = sumcheck._coordinate_sets

    def recorded(bits, width):
        widths.add(width)
        return coordinate_sets(bits, width)

    monkeypatch.setattr(sumcheck, "_coordinate_sets", recorded)
    got = []
    for n, m, *_ in WIDE_TRANSCRIPT_DIGESTS:
        formula = seeded_true_formula(n, m, m)
        coins = FiatShamirChallenges(TQBF_ORACLE)
        hashed = sumcheck_prove(formula, None, coins)
        assert file_bytes(coins) == transcript_to_bytes(hashed)
        got.append((n, m, _digest(transcript_to_bytes(hashed))))
    assert tuple(got) == WIDE_TRANSCRIPT_DIGESTS
    assert {16, 32} <= widths


# SHA-256 over (exit code, stdout, stderr) of `verify-tqbf` on each one-bit
# flip, then each truncation, of CORPUS[1]'s Fiat-Shamir file
VERIFY_OUTPUTS_DIGEST = "acc1d31dd3852db2c73550849ef98682e7dd1642130792f552a88ecf3f806c09"


def test_verify_tqbf_outputs_pinned_on_every_flip_and_truncation(tmp_path):
    formula = parse_qbf(CORPUS[1])
    path, transcript = tmp_path / "f.qdimacs", tmp_path / "t.transcript"
    path.write_text(to_qdimacs(formula))
    argv = ["verify-tqbf", "--in", str(path), "--transcript", str(transcript)]
    digest, calls = hashlib.sha256(), 0
    data = transcript_to_bytes(sumcheck_prove(formula, None, FiatShamirChallenges(TQBF_ORACLE)))
    for variant in _flips_and_cuts(data):
        transcript.write_bytes(variant)
        digest.update(repr(_cli(argv)).encode())
        calls += 1
    assert calls == 9 * len(data) == 1125
    assert digest.hexdigest() == VERIFY_OUTPUTS_DIGEST


# ── delay-function runs, forgeries and verdicts ───────────────────────────

# (parameters, input, digest of `vdf eval`'s stdout, digest of the
# hashed-challenge bundle from fs_vdf_open)
VDF_RUN_CASES = (
    # the benchmark's shape: lambda = 32, T = 2^16, space 32, 48 state bits
    (vdf_setup(32, 16, 32, "bench-golden"), "0110100111010010110110001011010",
     "94a46adbff2bbbeaeb6f268b8ab66b52c29394dbc422ccfecb69d078386d68c3",
     "7e84657c6b0b55af8649fb443bad89071de4a3f365fa138bbc5685c85036b9ac"),
    # reaches a final state at step 27, inside the window [24, 32)
    (VdfParams(8, 32, 8, 6, b"straddle-49"), "0110",
     "33bfac16f4b93981484d6ee00dd0991859d5b2db36a83f7784a571b84c159306",
     "0ab153f8555cceee92c6240af3a08123735d18a5c520ae54afbce1431b600ebd"),
    # README's 16-state-bit example: a final state after 631 of 4096 steps,
    # before the window
    (vdf_setup(16, 12, 32, "a1b2c3", state_bits=16), "1011",
     "561eba84f57a51d709e6318b3289131ec26e798fdc997272e366070b77f72d20",
     "a7c24b2844d97fe20566bbaeb0abab922caf322d41eb808399a91f60af3b5724"),
    # two cells: the head is clamped at both ends of the tape
    (VdfParams(8, 256, 2, 24, b"two-cells"), "1",
     "f53be21eeb0978d1a1f29be35f43eef1ed3f486e868835acae0d4bf59f505e1c",
     "664f67c9c37f48de8658a12cc4138017750ab4c68493c586f904d673e5d54dd8"),
    # the widest state the rule's 128 output bits allow
    (VdfParams(16, 1024, 16, 120, b"wide-state"), "10011",
     "d6ebed4e2b43f1c917c50488b713e847004a4752d4997938f8fd4b67513fe3be",
     "3a1328be5695cac506e4f06e32817021e168ff94aa6098dcf201ad34c6be937e"),
)

# (index into VDF_RUN_CASES, forger seed, digest of `vdf attack`'s (exit
# code, stdout, stderr) and the forged file it writes)
VDF_ATTACK_CASES = (
    (0, 1, "e4e8a22dcb31d7ef16b9c1e132ae904425d131272e8d2e6a2ae09e9b70fb6ade"),
    (1, 2, "53e5f287e28efd0053e0a8a210eb1aa8e6096099bf8afca62031a2bda5b3b95a"),
    (2, 3, "9201f9905fc7ca1d3a5185659bd994b55b029cf17cad3e3ff76f4374f960ad7c"),
    (3, 4, "db8a500e1c5c9ce28a931d9f7b27d60cf88b7620ed94870279b96a3ef1c4e37a"),
    (4, 5, "fd0bf8eec4368f7d8629ea75e2f2e2791a64dd7a7250592eedb3c88711249570"),
)

# SHA-256 over (exit code, stdout, stderr) of `vdf verify` on each one-bit
# flip, then each truncation, of LAMBDA16's hashed-challenge bundle on 1011
VDF_VERIFY_OUTPUTS_DIGEST = "2e287599e62d644c703ca10602546aa4cdd0ccc2c87d3759ee4160b3bd744ecf"


def _write_params(tmp_path, pp: VdfParams) -> str:
    path = tmp_path / "pp.bin"
    path.write_bytes(params_to_bytes(pp))
    return str(path)


@pytest.mark.parametrize("index", range(len(VDF_RUN_CASES)))
def test_vdf_eval_output_and_bundle_bytes_pinned(index, tmp_path):
    pp, x, eval_digest, bundle_digest = VDF_RUN_CASES[index]
    rc, out, err = _cli(["vdf", "eval", "--pp", _write_params(tmp_path, pp), "--input", x])
    assert (rc, err) == (0, "")
    got = (_digest(out.encode()), _digest(bundle_to_bytes(fs_vdf_open(pp, x))))
    assert got == (eval_digest, bundle_digest)


@pytest.mark.parametrize("case", VDF_ATTACK_CASES, ids=lambda case: f"{case[0]}-{case[1]}")
def test_vdf_attack_output_and_forgery_bytes_pinned(case, tmp_path, monkeypatch):
    index, seed, digest = case
    pp, x, *_ = VDF_RUN_CASES[index]
    # a relative path, so that the "wrote" line is the same in every run
    monkeypatch.chdir(tmp_path)
    _write_params(tmp_path, pp)
    argv = ["vdf", "attack", "--pp", "pp.bin", "--input", x, "--seed", str(seed), "--proof", "forged.bundle"]
    got = repr(_cli(argv)).encode() + (tmp_path / "forged.bundle").read_bytes()
    assert _digest(got) == digest


def test_vdf_verify_outputs_pinned_on_every_flip_and_truncation(tmp_path):
    bundle = tmp_path / "opening.bundle"
    argv = ["vdf", "verify", "--proof", str(bundle)]
    digest, calls = hashlib.sha256(), 0
    data = bundle_to_bytes(fs_vdf_open(LAMBDA16, "1011"))
    for variant in _flips_and_cuts(data):
        bundle.write_bytes(variant)
        digest.update(repr(_cli(argv)).encode())
        calls += 1
    assert calls == 9 * len(data) == 1197
    assert digest.hexdigest() == VDF_VERIFY_OUTPUTS_DIGEST
