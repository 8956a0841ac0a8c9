import pytest

from seqproof.turing import (
    SYM_MARK,
    SYM_ONE,
    SYM_ZERO,
    TmConfiguration,
    TmDescription,
    decide_spacehalt,
    initial_configuration,
    parse_machine,
    tm_run,
)

# fills 0s with 1s moving right, halts on the first 1
M1_TEXT = """\
states 2
halt 1
0 ^ -> 0 ^ R
0 0 -> 0 1 R
0 1 -> 1 1 S
"""

M1 = parse_machine(M1_TEXT)


def looping_machine():
    rules = {
        (0, SYM_MARK): (0, SYM_MARK, 1),
        (0, SYM_ZERO): (0, SYM_ZERO, 1),
        (0, SYM_ONE): (0, SYM_ONE, 1),
    }
    return TmDescription.from_table(1, rules, halt_states=())


def test_initial_configuration():
    c = initial_configuration("001", 5)
    assert c.tape == [SYM_MARK, 0, 0, 1, 0]
    assert c.state == 0 and c.head == 0
    with pytest.raises(ValueError):
        initial_configuration("0011", 4)
    with pytest.raises(ValueError):
        initial_configuration("02", 5)
    with pytest.raises(ValueError):
        initial_configuration("", 1)


def test_single_steps_frozen():
    c = initial_configuration("001", 5)
    tm_run(M1, c, 1)
    assert (c.state, c.tape, c.head) == (0, [SYM_MARK, 0, 0, 1, 0], 1)
    tm_run(M1, c, 1)
    assert (c.state, c.tape, c.head) == (0, [SYM_MARK, 1, 0, 1, 0], 2)


def test_run_to_halt_frozen():
    c = initial_configuration("001", 5)
    res = tm_run(M1, c, 4)
    assert res.steps == 4
    assert res.config.state == 1
    assert res.config.tape == [SYM_MARK, 1, 1, 1, 0]
    assert res.config.head == 3


def test_zero_steps_leaves_configuration_alone():
    c = initial_configuration("001", 5)
    snapshot = (c.state, list(c.tape), c.head)
    res = tm_run(M1, c, 0)
    assert res.steps == 0
    assert (c.state, c.tape, c.head) == snapshot


def test_live_counts_the_transitions_taken():
    # M1 on 001 takes 4 transitions and halts; a longer run takes no more
    for steps, taken in ((0, 0), (3, 3), (4, 4), (10, 4)):
        res = tm_run(M1, initial_configuration("001", 5), steps)
        assert res.steps == taken
    res = tm_run(looping_machine(), initial_configuration("001", 5), 50)
    assert res.steps == 50


def test_halting_is_absorbing():
    c = initial_configuration("001", 5)
    res = tm_run(M1, c, 10)
    assert res.steps == 4
    assert (c.state, c.tape, c.head) == (1, [SYM_MARK, 1, 1, 1, 0], 3)
    # stepping a halted machine is the identity, and takes no transition
    assert tm_run(M1, c, 1).steps == 0
    assert (c.state, c.head) == (1, 3)


def test_run_composition():
    a = initial_configuration("001", 5)
    tm_run(M1, a, 2)
    tm_run(M1, a, 5)
    b = initial_configuration("001", 5)
    tm_run(M1, b, 7)
    assert (a.state, a.tape, a.head) == (b.state, b.tape, b.head)


def test_head_clamping():
    stuck_left = TmDescription.from_table(
        1, {(0, SYM_MARK): (0, SYM_MARK, -1)}, halt_states=()
    )
    c = initial_configuration("0", 3)
    tm_run(stuck_left, c, 5)
    assert c.head == 0
    run_right = TmDescription.from_table(
        1,
        {
            (0, SYM_MARK): (0, SYM_MARK, 1),
            (0, SYM_ZERO): (0, SYM_ZERO, 1),
            (0, SYM_ONE): (0, SYM_ONE, 1),
        },
        halt_states=(),
    )
    c = initial_configuration("0", 3)
    tm_run(run_right, c, 10)
    assert c.head == 2  # clamped at the last cell


def test_mark_cell_never_overwritten():
    overwriter = TmDescription.from_table(
        1, {(0, SYM_MARK): (0, SYM_ONE, 0)}, halt_states=()
    )
    c = initial_configuration("0", 3)
    tm_run(overwriter, c, 3)
    assert c.tape[0] == SYM_MARK


def test_missing_rule_is_an_error():
    partial = TmDescription.from_table(2, {(0, SYM_MARK): (0, SYM_MARK, 1)}, halt_states=())
    c = initial_configuration("0", 3)
    tm_run(partial, c, 1)
    with pytest.raises(ValueError, match="no rule"):
        tm_run(partial, c, 1)


def test_configuration_validation():
    with pytest.raises(ValueError):
        TmConfiguration(0, [SYM_ZERO, SYM_ZERO], 0)
    with pytest.raises(ValueError):
        TmConfiguration(0, [SYM_MARK, SYM_ZERO], 5)


def test_table_validation():
    with pytest.raises(ValueError, match="halting state"):
        TmDescription.from_table(2, {(1, SYM_ZERO): (0, SYM_ZERO, 0)}, halt_states=(1,))
    with pytest.raises(ValueError, match="out of range"):
        TmDescription.from_table(1, {(0, SYM_ZERO): (4, SYM_ZERO, 0)}, halt_states=())
    with pytest.raises(ValueError, match="direction"):
        TmDescription.from_table(1, {(0, SYM_ZERO): (0, SYM_ZERO, 2)}, halt_states=())


def test_decide_spacehalt_frozen_cases():
    assert decide_spacehalt(M1, "001", 5) is True
    assert decide_spacehalt(M1, "", 2) is True
    assert decide_spacehalt(looping_machine(), "0", 4) is False


def test_decide_spacehalt_guard():
    with pytest.raises(ValueError, match="2\\^28"):
        decide_spacehalt(M1, "0", 27)


def test_pigeonhole_double_bound_spot_check():
    m = looping_machine()
    space = 4
    bound = m.num_states * space * (1 << space)
    c = initial_configuration("0", space)
    res = tm_run(m, c, 2 * bound)
    assert not m.is_halting(res.config.state)


LOOP_TEXT = """\
states 1
0 ^ -> 0 ^ R
0 0 -> 0 0 R
0 1 -> 0 1 R
"""


def m1_from_table():
    rules = {
        (0, SYM_MARK): (0, SYM_MARK, 1),
        (0, SYM_ZERO): (0, SYM_ONE, 1),
        (0, SYM_ONE): (1, SYM_ONE, 0),
    }
    return TmDescription.from_table(2, rules, halt_states=(1,))


@pytest.mark.parametrize("text,machine", [(M1_TEXT, m1_from_table), (LOOP_TEXT, looping_machine)], ids=["M1", "loop"])
def test_machine_text_runs_like_its_rule_table(text, machine):
    parsed, table_built = parse_machine(text), machine()
    for x, space in (("", 2), ("0", 3), ("001", 5), ("1", 4), ("0000", 5), ("0110", 6)):
        for steps in range(space + 3):
            runs = [tm_run(m, initial_configuration(x, space), steps) for m in (parsed, table_built)]
            ends = [(r.config.state, r.config.tape, r.config.head, r.steps) for r in runs]
            assert ends[0] == ends[1], (x, space, steps)
        assert decide_spacehalt(parsed, x, space) == decide_spacehalt(table_built, x, space)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("halt 1\n", "missing 'states'"),
        ("0 ^ -> 0 ^ R\n", "before 'states'"),
        ("states 2\nstates 2\n", "duplicate states"),
        ("states x\n", "expected 'states"),
        ("states 2\n0 ^ 0 ^ R\n", "expected 'q sym"),
        ("states 2\n0 2 -> 0 0 R\n", "symbols must be"),
        ("states 2\n0 ^ -> 0 ^ Q\n", "direction must be"),
        ("states 2\n0 ^ -> 0 ^ R\n0 ^ -> 1 ^ R\n", "duplicate rule"),
        ("states 2\nhalt q9\n", "non-integer halting"),
        ("states 2\n0 ^ -> 5 ^ R\n", "out of range"),
    ],
)
def test_machine_parse_errors(text, fragment):
    with pytest.raises(ValueError, match=".*"):
        parse_machine(text)
    try:
        parse_machine(text)
    except ValueError as exc:
        assert fragment in str(exc)
