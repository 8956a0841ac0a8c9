"""Byte-identity corpus: transcript and bundle files are pinned by SHA-256.

Refactors of the message schedule, the provers or the codecs must leave
these digests unchanged; a changed digest means a changed file format or a
changed Fiat-Shamir challenge.  The formulas are true and n <= 6.  Cheating
provers' transcripts are pinned with the reason each is rejected for, and
soundness reports by the digest of their JSON, which counts every trial's
verdict.  The interactive conversations are also pinned apart from their
bytes, so a codec change can show that only the encoding moved.  Wide
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

# (interactive transcript with coin seed = corpus index, Fiat-Shamir transcript)
TRANSCRIPT_DIGESTS = (
    ("af7f030f6b5d11f46dd29880a6ac7feec87483c2b08af40f45e48747fd8faacc",
     "9b9e046a28bf2054d83eafc8192c9ec62a5062ace92acc71c5153304472b59af"),
    ("164fc40dfa0e8405daecd5888de8ae019e9461efe1ece36a88a35d20c73f247a",
     "d23c446425ebfc014a096151f32227e60df4eee0c98a24ab2d8ebf31bbe975a9"),
    ("3c0ae7e9e5e2186a7bde3da6a01153fa4775a79d9d60eb47a6aca282e3e0bc08",
     "938af9dd3f6b531090aa1aceedad94ad2b9ec643fba4a575fef5be15080b8c18"),
    ("52309f08bdd844261abf6f8e811242ff234247bba1f75d51b6e1e0eaef9f62ac",
     "d1c3f6bd40ebaf74ba4fd645e21232cecc604733fc3e827e9bbc615277b5059f"),
    ("feee0dd64447ab8623990580cc6404a76666a955632bdc4f79d67db71230fc50",
     "af3e9fcf14dc384db28cda56e9f4a8bfac3f8b75052aa8be766dd6802ba26bf5"),
    ("442a5812da4b1ee17ece0ea9a91be20ea420ea3d198f81b85ff2518e400b43ce",
     "3708f9509c5125a2edbb4d17bf121ef19ac95c04683bbb13c73f3b54701599b2"),
    ("44e9874d9afe72e1ea7b774643f44204eb2c62f085bc33893346bfce8448d51b",
     "5bf2cb2c918a860a2757c801ead6b294b266b490993a611e10bf958f3177d144"),
    ("c1d904daa1481714bfba15c19859a1190ece66f8ba0d3fd94856c30b2ff7b352",
     "fafa0abb8eb2dfc26c068ffbcc0107ed51df8469076c4da90bee041a512b3b80"),
    ("68efeb4152433fb8fc356b17be6c026b93a4966eb1e34cbf5110828a9e8cdb68",
     "810438063087c91625a1826af7cd257bb7498d342fcfe2e6b86586e216a624a4"),
    ("6f1018e3da0d4c875ddb9e0c3d972f592a827c09ef7fb0f9d3a7ddf6a4afa544",
     "f72b02fcfbabc8676b8e0d2bd84a5cb4bbfa68bd7871ac6f364c75a489015bd9"),
    ("01875f3aa05a9d57c7e03315f57173ab9536cb4f9d7923776c5d3632b84595a0",
     "459bf3fee17a2e5945be7f376881c5d32106a611f25b3b444bcff98bacecf423"),
    ("9000484aafaef7dae9a94d8f6f54cc48e4a440904271886011a2be72eb458ada",
     "626140d18a014bb3a0f83663479a3029bd4b7252d1cbcd2f5d3e287eb51196c6"),
)

# (corpus index, strategy, digest and verdict reason under interactive coins
# with seed = corpus index, the same under Fiat-Shamir); the prover's own rng
# is random.Random(corpus index)
CHEAT_CASES = (
    (1, 'wrong-claim',
     '1745a1f4339af3ebd8d80fdcc5229a5e5e29b4731768aeecbcf99e4b8b6b74f5', 'final-check',
     '8374f44c02ea8e0215a86832d7ef51dbc8177b565d2189ded65738108a1965ec', 'final-check'),
    (1, 'constant-poly',
     'c5e68f44cf33ed4f16252c5bea0e21187cb0f1d4b7b39132c848db16c05d0cd2', 'final-check',
     'db6c6104414eac8e4bc4e74ed77bffbd3f5fa0b6cd5893338d4ba0b10592ee58', 'final-check'),
    (1, 'random-round',
     '1bad8769ca3220264651058aa3f0cbdf1d7f84ab46e256eb82ce59ec0448578c', 'round-check',
     'ed8b4ec41e7c6e7c0bffb9a75627676e278ca3b178838d0c2733f9c835fd4ca7', 'round-check'),
    (1, 'random-round(1)',
     '9c3a952e12aecfbe3f92a7997b68a320fad2096ac412757b0e77faf96a15a3ac', 'round-check',
     'b301eae62b043088391dffd743d1485f1f92d8c3d8469fcd5f70d4d0d3cdb447', 'round-check'),
    (4, 'wrong-claim',
     'd4c409e6d27071e0b6ffda84a445e61ab038460fd8fba45976dce3717099082b', 'final-check',
     '0efb9dd64dfae47ac7c9f0b38cc6aaa03ebf9639715048d425e8b7f13785e440', 'final-check'),
    (4, 'constant-poly',
     'ea3fbe3239449c2de7a13f2e7a45f9797639bb555c2b23b32805d4b7c2b85beb', 'final-check',
     'b96fcb21553912af1132cc86ba6c3b84f94a60f1e250ab690e4eb2ec6880190e', 'final-check'),
    (4, 'random-round',
     '6b4bce05bccb836d825cc257e349180345fc1e636cf1cc96569a072f6defa024', 'round-check',
     'faf81879262df790b03f3c56e91284a84a4eca69f3f339dcf1fc5051093915a5', 'round-check'),
    (4, 'random-round(1)',
     'adb7f4e9778ae0370985c07418fad7fe3d2fd2d67ce11de61282e282c42f5c75', 'round-check',
     '95908c49fe92173def665659cd036487cb5a27471804469b3eac02fe88d9a363', 'round-check'),
    (7, 'wrong-claim',
     '4e4d5186cb1fa54c280e56bf0828eac48d1a13958785661fa1bfbb82fd7a43c1', 'final-check',
     '82553eccb8e320e0f98c5309a38d60cd374eef9bab683dc19ef79869625b3b3b', 'final-check'),
    (7, 'constant-poly',
     'a28ffd23d0ca1cb3dece3f5c37a9b21d1e5f66e68519c453ee0ae0873dcf0616', 'round-check',
     '37973b22cb08a1d17d87af11f8bafe0258f398fd06d654367b37c10c00af1cc0', 'round-check'),
    (7, 'random-round',
     '8fab1de49442849663a0e9ad206d097cb39b3245472323c79819aae767dceb8c', 'round-check',
     'dbcd97f1f09ef55fd6e631e9beadf874de386c55a7c2d5a4e1a79843d90efad1', 'round-check'),
    (7, 'random-round(1)',
     '9f30386097c8a4ef94b7c3e4107ae5eda6a35a8c80d7eda4a3410470f5d0fb2a', 'round-check',
     'c5f73f2e8c8abd3df992e3d5e990c9468184b83c9783030aae376d09d8f69f23', 'round-check'),
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
    interactive = sumcheck_prove(formula, p, InteractiveChallenges(index))
    coins = FiatShamirChallenges(TQBF_ORACLE)
    hashed = sumcheck_prove(formula, p, coins)
    assert interactive.claimed_value != 0
    # the hashed bytes are the file bytes after the mode message
    assert file_bytes(coins) == transcript_to_bytes(hashed)
    got = (_digest(transcript_to_bytes(interactive)), _digest(transcript_to_bytes(hashed)))
    assert got == TRANSCRIPT_DIGESTS[index]


@pytest.mark.parametrize("case", CHEAT_CASES, ids=lambda case: f"{case[0]}-{case[1]}")
def test_cheating_transcript_bytes_pinned(case):
    index, strategy, interactive_digest, interactive_reason, fs_digest, fs_reason = case
    formula = parse_qbf(CORPUS[index])
    p = default_prime(formula)
    got = []
    for coins in (InteractiveChallenges(index), FiatShamirChallenges(TQBF_ORACLE)):
        transcript = cheat_prover(strategy, formula, p, coins, random.Random(index))
        got += [_digest(transcript_to_bytes(transcript)), sumcheck_verify(formula, p, transcript).reason]
    assert tuple(got) == (interactive_digest, interactive_reason, fs_digest, fs_reason)


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


# (n, m, digest of the interactive transcript with coin seed m, digest of the
# Fiat-Shamir transcript) for seeded_true_formula(n, m, m)
WIDE_TRANSCRIPT_DIGESTS = (
    (2, 8, "14e02b9d6f9a7bb60478542f7cb2be9ad0282627405cfd971cad6024801b9353",
     "bbf60bd0362788546bb33539c2338f317b245e09253b070ea51a3eeb141be823"),
    (2, 16, "5adb8795361c61e42d66de6c918659a7720923c75e9d592ddf5ee38d901ef4fb",
     "863b1bf8a296c56d4e61c0886f091b2b88f3ccb62f5c9a993422792dff2e0032"),
    (2, 23, "deca1734645e8b44865bb62d39b330433e807be51219cbc60bcc7b0a4c7f4af1",
     "369e34e14e69ed87941ff26398da1822d48b06e685dc94f05b8c3bbda7aed643"),
    (3, 8, "912cf3db45862a2b026e78787f3c44e1e83a041e5ecee481e6d33e7b5da890ac",
     "7a836100ea7220c713a02ad7b2b0b3ae9f1426362a3ba60bf5caba177bd4293e"),
    (3, 16, "3704d26b0329dd6e5d7528cc7ef5f3b59c989ab568c080d28aa2055644e6455b",
     "b6f520056e1c90cb1a92295506826b1b0b87f45416026e6dd11a6da9e8495bb0"),
    (3, 23, "c23d394b17cf631784e559c486fbf3cdcbbad8f366ef73b88832b9697321891c",
     "d0db7f46e467e912caf42a005659ec1e765c72afc1dd572d85e9a940969b88fc"),
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
        interactive = sumcheck_prove(formula, None, InteractiveChallenges(m))
        coins = FiatShamirChallenges(TQBF_ORACLE)
        hashed = sumcheck_prove(formula, None, coins)
        assert file_bytes(coins) == transcript_to_bytes(hashed)
        got.append((n, m, _digest(transcript_to_bytes(interactive)), _digest(transcript_to_bytes(hashed))))
    assert tuple(got) == WIDE_TRANSCRIPT_DIGESTS
    assert {16, 32} <= widths


# SHA-256 over (exit code, stdout, stderr) of `verify-tqbf` on each one-bit
# flip, then each truncation, of CORPUS[1]'s Fiat-Shamir file, then the same
# for its interactive file (coin seed 1)
VERIFY_OUTPUTS_DIGEST = "af55e86612f05bfd784113cb53256af0870bc7730683a618a669c75dd9243a94"


def test_verify_tqbf_outputs_pinned_on_every_flip_and_truncation(tmp_path):
    formula = parse_qbf(CORPUS[1])
    path, transcript = tmp_path / "f.qdimacs", tmp_path / "t.transcript"
    path.write_text(to_qdimacs(formula))
    argv = ["verify-tqbf", "--in", str(path), "--transcript", str(transcript)]
    digest, calls = hashlib.sha256(), 0
    for coins in (FiatShamirChallenges(TQBF_ORACLE), InteractiveChallenges(1)):
        data = transcript_to_bytes(sumcheck_prove(formula, None, coins))
        for variant in _flips_and_cuts(data):
            transcript.write_bytes(variant)
            digest.update(repr(_cli(argv)).encode())
            calls += 1
    assert calls == 2790
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
