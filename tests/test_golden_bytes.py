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
    "7ccfd9d85d5fbd9e4bef70de5287544668b741e04f62b16868038a268915cbc0",
    "6251f1cc6dbf35c207801e883f231f3243fc86924caea84f28439e912ffc1595",
    "d6bb204b291df0b778e0afbd770bc5b8e6cd21e7e147c31ab2a1ba789f1a22cc",
    "91fc228cfa3cad8c1bbbd84ca9b99fbca5ffa969dcd950eff131d6191e12fa5c",
    "a0e42a7a381206fa68c2fb771d25e37272734aa1aba35a60bc47d301e0887b2a",
    "b6375aac7cda5f5d6bf45227b09bf2084266f289482de634bd8173412cf30f76",
    "ca40db1b0fc8a8f7ea3b54008dea9d690fa260695e5bb59f36f79e99bb1377e2",
    "9da208ed0caea6a57677abe6ab42765eca5b3839746d50934b70624e1d8a9023",
    "38da199cc53dab0a57e4b15dda8f91ae90b3a6c4daf5588ccb77ddb0e251737f",
    "99bed4d88fb9121efecb03811df1749d1ebc0df1a92eb9ddc945ae3e2af7080d",
    "8b331810d2409a2b6ec085c304863bacb79874813879a4d18d6ffb624e5de62e",
)

# (corpus index, strategy, verdict reason under interactive coins with seed =
# corpus index, digest of the Fiat-Shamir file and its verdict reason); the
# prover's own rng is random.Random(corpus index)
CHEAT_CASES = (
    (1, 'wrong-claim', None,
     'ace772ea2a2ae952845e79b365077f83e853cb2364ecc9db1d65a1f1b9f370b3', None),
    (1, 'constant-poly', None,
     'ce8cb82d663b1550b8eba80865c15e19b9043668f58f4370dfcf786923255c18', 'final-check'),
    (1, 'random-round', 'round-check',
     'df089f0b804d618eed89c252c381de7653c8d1f401cea31d63149ec06659ad63', 'round-check'),
    (1, 'random-round(1)', 'round-check',
     '23fa18e694ab41d44aba8b5aa8aaa1350b2dd8b7038ef2bc9a65809058c5b4f3', 'round-check'),
    (4, 'wrong-claim', 'final-check',
     '6b1e20997a3ee417df39baafa14bdf3bf04d61b12c84be78b5a511fcf117c4fd', 'final-check'),
    (4, 'constant-poly', 'final-check',
     '55890f439a6692a9f2da2fa0ae2bc1de1b2772c38e2945407df8b1de153a89e4', 'final-check'),
    (4, 'random-round', 'round-check',
     '85ee645da5f9016d89c796a087b85ac4d795eedeab847c81d048194527ff3110', 'round-check'),
    (4, 'random-round(1)', 'round-check',
     'd7d191ef8cbe8465dbeb053d5f7d535f728dbff5559077da3bb3f5c881a7b2f9', 'round-check'),
    (7, 'wrong-claim', 'final-check',
     '8fc0aef867a1fa3fb7a9fbdd35c42fa5b9c8efe0c153feb1884f8dcd8fff7958', 'final-check'),
    (7, 'constant-poly', 'round-check',
     '51d3f727ba2e4a75ae7972c1cf69c76cc977c236912709c5ee7bf1de0155f216', 'round-check'),
    (7, 'random-round', 'round-check',
     'be1c5782d8947dfc84472f9f57dcb6abec440ad1dc908f688044dbd1945cdfc4', 'round-check'),
    (7, 'random-round(1)', 'round-check',
     'a7af2722cc77a0bd4c85e4a33684d258aa185a6708ba716963d7de50f57c0d11', 'round-check'),
)

GOLDEN = VdfParams(8, 16, 4, 8, b"golden")
LAMBDA16 = vdf_setup(16, 10, 32, "a1b2c3")

# (n, m, p, seed, digest of exp_soundness(n, m, p, trials=1000, seed=seed).to_json())
SOUNDNESS_REPORTS = (
    (1, 1, 223, 3, "4a7c628e66c681a54793f14a37c6e0e1d2813d32a13955a5e8697900693f80f0"),
    (1, 1, 223, 11, "1cf56edb10d0046b64704d38bcf9197e6f0cec485889f682d679d3bcd8917869"),
    (2, 2, 1009, 3, "190d6188a52442c30765a9b16bc6c210c140790344ce40d10f23510095238afd"),
    (2, 2, 1009, 11, "be8b356560367f05413c11bd7b141f1b2537b2e947afb6d49b24606852589264"),
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


# SHA-256 over repr(((p, claim, polys, challenges), verdict reason)) of an
# interactive conversation, whatever bytes encode it: one per CORPUS formula,
# proved with seed = corpus index, and one per CHEAT_CASES case, run as that
# case runs its interactive transcript
INTERACTIVE_DIGESTS = (
    "020e8ead6b32545f59f2049612571c740c59b90b9121f75a1aab0c1805ac5133",
    "221def58af804b949c110a633c2486549626e37cc4d502cff786be92c57b8b4e",
    "e121fe4ac280aa3851dc0d488a9aae88e627bab69ae1b44f6ace70cd09fe5c36",
    "ca24967e63f564059282040c0fee21b4f5c9b184ac4c176c951d8245706379ec",
    "224cf4141f31e2ad7074d9a9b2a361da9eff861a9598716e9ddd169c1139bc66",
    "3ab63512b4872035a869064f8b018166ad79df5279097e6cf0c061e05da5b243",
    "87a59c691128a50ca09a2267e1418b11dbb02588158899324f657ceeacf3af43",
    "6511803121e1b0ce5e5d494d11ed5d405ea50f274ddd7c21f5bb680604af0cce",
    "0346d47c250db0eeb92f3a7b8e20eaf95983eba9816aa8211e8be22586db792f",
    "98edbf44ffe792401bc58db572f033728f29524311ac0622846ac2a74b7eaf0b",
    "50ada22959930ee5410d86dfb2fa770dd6c7bee9f3d02ebfbd7dc4bd511b5a8b",
    "9fe95728f4a7582949f8da1aac4ad778fd5b3d78a2053c3194ed447b627a2112",
)
INTERACTIVE_CHEAT_DIGESTS = {
    (1, "wrong-claim"): "ad43a4309f32c7796b4865a01cb9cb4aaad864c76524cb00cf4fc8ab83110517",
    (1, "constant-poly"): "0fd520f36222e949b20c23860ed36df1749967e0c5a0413c5ea9fc0abc1436b7",
    (1, "random-round"): "08431af1d4b838ea5aa24ca1da37936cb3143afbfcb071c710521777347159e0",
    (1, "random-round(1)"): "7659d58a0efc4e1f5ec8636b2b8bb165268e10de8ea9a29cb253d46b858c6737",
    (4, "wrong-claim"): "8df6fb435a2b49234c1bde0432bc55deda237d5911c5e34bd8c24332400753cc",
    (4, "constant-poly"): "15a09b690fbcff78e6caef1b7f5c2cbff7eca96b8fb3f75f7efe94556e10d046",
    (4, "random-round"): "39c3bc3f176d9fe4a39f8e072361d3872994318cc3c710b9029d7bd046613cd5",
    (4, "random-round(1)"): "d1da0b25026deea9eb6b6455e20b0427e6751b36b7262fdc28541e8b92385cca",
    (7, "wrong-claim"): "8d148a25e37db095fa04906bb902b4baa58b03613321a07514a69b67943d1897",
    (7, "constant-poly"): "ad903779eaada2f30867d1ee595b531caf020525a3ef2dd86da8ecdc390d0797",
    (7, "random-round"): "14399bc00164fcca0520230eafae19d4547e9a06abf6819eed5c1921251b96cd",
    (7, "random-round(1)"): "adae600d845671f08cfbf5b1fb82220c9de6c42f418702f786451398d257099a",
}


def _conversation_digest(formula, p, transcript) -> str:
    t = transcript
    conversation = (t.p, t.claimed_value, t.polys, t.challenges)
    return _digest(repr((conversation, sumcheck_verify(formula, p, t).reason)).encode())


@pytest.mark.parametrize("index", range(len(CORPUS)))
def test_interactive_conversation_pinned(index):
    formula = parse_qbf(CORPUS[index])
    p = default_prime(formula)
    transcript = sumcheck_prove(formula, p, InteractiveChallenges(index))
    assert _conversation_digest(formula, p, transcript) == INTERACTIVE_DIGESTS[index]


@pytest.mark.parametrize("case", CHEAT_CASES, ids=lambda case: f"{case[0]}-{case[1]}")
def test_interactive_cheating_conversation_pinned(case):
    index, strategy, *_ = case
    formula = parse_qbf(CORPUS[index])
    p = default_prime(formula)
    transcript = cheat_prover(strategy, formula, p, InteractiveChallenges(index), random.Random(index))
    assert _conversation_digest(formula, p, transcript) == INTERACTIVE_CHEAT_DIGESTS[index, strategy]


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
    (2, 8, "1c7f414231e3608563787e14f33bb6978b316ab20b652aa570daf8d8ad956859"),
    (2, 16, "0c19013b09c71d04250ee680ad54064dad4a2daa8c07a2b0d91228781e918771"),
    (2, 23, "791d920adc7e1e990636313076b190e4410aa34fb75faa3c26221afdaca7a24a"),
    (3, 8, "c5080320174a38f68276acd2f42e1d5cdca469cfb849a828b95ebbe703ca6361"),
    (3, 16, "266fb7696bdf60ea17a8fae166a3d5b813b741adce9577b51f219f32bb7a9ac9"),
    (3, 23, "b6c63c80fee6136b75c509db7b64d83ad42eddea96a79c71a221ec8054857ba9"),
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
VERIFY_OUTPUTS_DIGEST = "69ccfdda3b1043dd3fac1f8fd968acea5a17321c03f202eebfe77d52b28b18eb"


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
    assert calls == 9 * len(data) == 1053
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
