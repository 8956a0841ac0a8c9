"""Count the seeded machine's transitions in both of `shvdf`'s run loops."""

from seqproof import shvdf


def count_machine_steps(monkeypatch) -> list[int]:
    """Patch `shvdf.tm_run` and `shvdf._run_prefix` so that each call appends
    the transitions it took to the returned list."""
    stepped = []
    run, prefix = shvdf.tm_run, shvdf._run_prefix

    def counted_run(*args, **kwargs):
        result = run(*args, **kwargs)
        stepped.append(result.steps)
        return result

    def counted_prefix(*args, **kwargs):
        taken = prefix(*args, **kwargs)
        stepped.append(taken)
        return taken

    monkeypatch.setattr(shvdf, "tm_run", counted_run)
    monkeypatch.setattr(shvdf, "_run_prefix", counted_prefix)
    return stepped
