"""Reference oracle for the operator chain: the chain evaluated by plain
recursion, with no tables.  The tests check the prover's round polynomials
and chain values against it; the package never calls it."""

from seqproof.sumcheck import ArithPoly, OpKind


def eval_chain(ops, bindings, f: ArithPoly, start: int = 0) -> int:
    """Reference value of the operator suffix ops[start:] under bindings.

    bindings is a mutable list with bindings[i-1] holding the current value
    of x_i (None if unbound); it is restored before returning.  Sum and Prod
    bind their variable to both Booleans; Lin combines the two Boolean
    branches weighted by the current binding, collapsing to a single branch
    when that binding is itself Boolean.  Each operator at most doubles the
    work, so the cost is up to 2^(len(ops) - start) evaluations of f, where
    the prover's tables cost O(n*2^n) once.
    """
    if start == len(ops):
        return f.evaluate(bindings)
    p = f.p
    op = ops[start]
    i = op.var - 1
    saved = bindings[i]
    if op.kind is OpKind.LIN:
        if saved is None:
            raise ValueError(f"Lin over unbound variable x{op.var}")
        if saved == 0 or saved == 1:
            return eval_chain(ops, bindings, f, start + 1)
        bindings[i] = 0
        g0 = eval_chain(ops, bindings, f, start + 1)
        bindings[i] = 1
        g1 = eval_chain(ops, bindings, f, start + 1)
        bindings[i] = saved
        return (saved * g1 + (1 - saved) * g0) % p
    bindings[i] = 0
    g0 = eval_chain(ops, bindings, f, start + 1)
    bindings[i] = 1
    g1 = eval_chain(ops, bindings, f, start + 1)
    bindings[i] = saved
    if op.kind is OpKind.SUM:
        return (g0 + g1) % p
    return g0 * g1 % p

