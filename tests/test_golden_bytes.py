"""Byte-identity corpus: transcript and bundle files are pinned by SHA-256.

Refactors of the message schedule, the provers or the codecs must leave
these digests unchanged; a changed digest means a changed file format or a
changed Fiat-Shamir challenge.  The formulas are true and n <= 6.  Cheating
provers' transcripts are pinned with the reason each is rejected for, and
soundness reports by the digest of their JSON, which counts every trial's
verdict.  Wide formulas (m up to 23) pin the final block's 16- and 32-bit
pattern fields, and one digest pins what `verify-tqbf` prints for every
one-bit flip and truncation of a corpus file.  Delay-function runs pin
`vdf eval`'s output and the hashed-challenge bundle, `vdf attack` pins its
output and forged file, and one digest pins what `vdf verify` prints for
every one-bit flip and truncation of a bundle.
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
    ("b40547e0117284801b73043d730e323dfb304883376b9b537615e4d9c3732d75",
     "9d3c31e38ea1f1a9323c36685127dd9a99ba56489f7db0ea1edd2621e4393932"),
    ("d12e648f9afb712f22ce8028a9534c1e429d57e7b425b4af1c4766345d18c2bf",
     "51eda16190b0e67f71f82392014b5640cac8610cc55b890c5107159408c43775"),
    ("c6bc5382d5af68fd123e4d182337231cd921880474301346d543a441bb375cb2",
     "476d5b62301938740d6caac7b5150110817b5ee1070389952fcac142f9daa7b3"),
    ("27ab666674f9ed299a52b61ea784eddb8e6957ec70370874ec8b7d17bd0b3728",
     "64eaad5de87914c5fe60306fc2b9c7f24c29a2782d78d20d82ee1314f0595908"),
    ("3f4382efdc6eacbebf854f2610f856a8c9ffc771627329ab16e90d4b33dff017",
     "9e7bda92a40d12220a47a3b5d10de428428bbed362206cae3954ae126a8f9d41"),
    ("2ba3dc17b14bcf828af829adae094ddeb7ca2464bce95cd2643aca7da88db4db",
     "83e29ada65c17b792c7327c3b9fa07f61aed1338ca3adff47c29315d7439b92a"),
    ("3058bec3a4c6130754fa81a05c9eff76e71928b8e53d6d8981c79bdf191d7445",
     "84c69797e04167d2edb1160687eed47b8397f1d42e0d6f1954a273f577bc99fa"),
    ("5346b521dc48434bfa3e170e0a95989a84f5c67b5688d429bf5f381c24d9ea92",
     "5357dd925b8dba0b94f25d25aa1461280d8bdf38b824f4d172fbf67d8f7844df"),
    ("0794043c046ecb13856c9eca3a862f819d91566cb308fcad5d2f228abfc9cc72",
     "45e79e7f23b0ab1514d9a3dd047577da17d2d9fa096429f39009118a55b0c72a"),
    ("e88cc967c6cb4aae357fa7f4699032d66671ca2175f0d83754e4721663812fd2",
     "78d823df7b736d8de417a773703a659daef7e6c6659564c3d373872df1817752"),
    ("c4a34e8f8826003295aefafb7f0907c3ce65c18a8d76a76a8268bb9232302b98",
     "23c064a52b2103ddb910d4b58db3faee0187d94be16e7aefdd584224f4aec823"),
    ("954eec36c4b676ebeeb7ccf2c81c30d9776df6d3b9c6feefea7ad91b8183ab46",
     "4d7ba46eeef7b03a0b4df6c847f54de5192258a0551b9b643a89737f3ba4c913"),
)

# (corpus index, strategy, digest and verdict reason under interactive coins
# with seed = corpus index, the same under Fiat-Shamir); the prover's own rng
# is random.Random(corpus index)
CHEAT_CASES = (
    (1, 'wrong-claim',
     '44bc77dd354458c8a30597826bc2bcb1f3734e92c396b0f91454bd3a12408006', 'final-check',
     '53be8fbfa4aa980f3b976b912e248f905013059b67d050c64c14e2349af88232', 'final-check'),
    (1, 'constant-poly',
     '7c8b9b5cecdb1461f1cbfd2256fdd2a4e7e55a6afd69677aef4b417fc7e857e0', 'final-check',
     'f3fe91a8d1a8ab3d1834debab0a608375d3dfa1affc322deb0075dbeab9ba726', 'final-check'),
    (1, 'random-round',
     '7f187c5eed8db6dc32e795d51b4dd0a84892d8d4e67ae7a71340e01db48009f5', 'round-check',
     'd37f5ae08380c4c8939843e08dab0a4d94c3f06168ed299ff160ab5793f8cb3a', 'round-check'),
    (1, 'random-round(1)',
     'bbe322ce391c48882d4069fc0717162672541fa700e3c321d1a69a81d35c818a', 'round-check',
     'ddc1ad7fa7f00f3d1f1fb1cc60304ea18f2bf8703ca4eb1234fcd991fa776dbb', 'round-check'),
    (4, 'wrong-claim',
     '74fc71e05068233404d7c03ff0e6f39c3f7fcef25fe90ba5a8bf6f1a81d3b60a', 'final-check',
     '9846d2a7685f23ad8947c77cafa617cd9a13d3e9be704fb2daff4f845c4d4f02', 'final-check'),
    (4, 'constant-poly',
     'e788ed2952de148cf51df4b4046fa12ccccd0994391635dbd89a6de613fd0e08', 'final-check',
     '1562022d5282ad48b11c9405c810c06d95202e1178b2a036a2833be6ea4069a4', 'final-check'),
    (4, 'random-round',
     '61988efcf40d847705e1ff94b23d4c81e42317f064d4f0c2a1fedb0328bbde25', 'round-check',
     '2467fdef7ea01ce3bff139e6fbbc6488f039b63117d4cdf33fa10dde36d9f4ae', 'round-check'),
    (4, 'random-round(1)',
     'da8ee42e4a4eb101da5fa03bdf371467678a821009b8260bd0c4a9b6823b25b7', 'round-check',
     'f0d6b5a6af7df8d8075696480ca85d1c4b12c6523d799067dce1caa9c26c73f2', 'round-check'),
    (7, 'wrong-claim',
     'f5f6f066d7243755062e34561ef55f426e89fff50fedd2ce183dbdddc627b1ed', 'final-check',
     'e313e5df9975957deabbe4d194c76f32be975bc607a16f76f8e4032ac3cab580', 'final-check'),
    (7, 'constant-poly',
     'ec12bbdc7d68ba690ffc2c76fafea7297d86c3b2659970e323dea3f1d40f904c', 'round-check',
     '67bc46719121b12a9a38204706bb1e73a9a06e53eafc82220e38d0ad1374321c', 'round-check'),
    (7, 'random-round',
     '908342b64adc5bca7d13b4c100d5919a11faeaf0a6409e7de8eafced5d620078', 'round-check',
     '6ece1ed6e1198e21ce70a509d45ec1e8e367e33d43d3d99f234375f5f340e683', 'round-check'),
    (7, 'random-round(1)',
     '2c02583bfa4b6ef5c586b5fe2d1d3bdc29f39ccdbc74be2ed2ba5bf99754558e', 'round-check',
     '992d1cf08e430a9da7e3af9f8d6987abe48dffd8e48ab67a2b5f2ff6a3613362', 'round-check'),
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
    (2, 8, "1474190fc85aa9e5fa5ab08804aaf53452fde02f704a022465f87dc72140415f",
     "e8e597015714482924c86ab3f53e1cf6e17c361e07e47eabad7be2c66abc7d4b"),
    (2, 16, "fda063e5ef4892415892144d0b00fa96dbb85e6cc937e54deb65693251a0f78b",
     "0ae43bd921e714c48332400bfe54ed4c4c4903518a105960ec517853a7c7f75c"),
    (2, 23, "7aa79540275dbe4b895bb6822812aec1a6e78fdc1a992cbf9d3a863ee26fb872",
     "d7c95461b7b4e3da41ca0b7a1e0d39b23c3bf8134a6a6759434074529a816801"),
    (3, 8, "f8edc9ba50c9a9016ce882053a9778cb13cc36e1bb87c6e382d2049dd80415d5",
     "f196c895c0db1529d86068520b7c9a46cf211f026c6df2e57e18c87736b0b95c"),
    (3, 16, "9df043e70d30b887f22ba6a163e49f9742b0d27c6d379a78bb2920fbe8e0a36c",
     "5b4ab2ac2de15df486afbaefbe334c1cd222466ae85b095e20fda9f3fdf0c1ca"),
    (3, 23, "dc4b44f9ce1f12d98e6ba446ee380074ad2e4fdb3822c07e6ee424b17af608bf",
     "85595282c1eaf3e3243e6df55211392ee67a14b15d8479bd570b63430d70bb3f"),
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
VERIFY_OUTPUTS_DIGEST = "9603afc84f3d718b313a019e9c7fc0356a871f3801e83d5e641c9e8ee78cb40e"


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
    assert calls == 5130
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
