"""Shared helpers: fixture loading, outcomes for differential tests and
the proof-mutation generator."""

import copy
import json
import pathlib

DATA = pathlib.Path(__file__).parent / "data"


def load_fixture(name: str):
    return json.loads((DATA / name).read_text())


def outcome(fn, *args):
    """The value of fn(*args), or the type and text of the error it raises."""
    try:
        return ("ok", fn(*args))
    except (TypeError, ValueError) as exc:
        return (type(exc).__name__, str(exc))


def _mutate(items, i, **fields):
    out = copy.deepcopy(items)
    out[i] = {**out[i], **fields}
    return out


def proof_mutations(items, limit=20):
    """First ``limit`` single-line corruptions of a proof as (label, lines).

    Each result differs from the original in exactly one line and must
    fail the checker, either at that line or at a later line that
    references it (boxing a premise, say, passes locally but breaks the
    necessitation step built on it).
    """
    out = []
    for i, line in enumerate(items):
        refs = line["refs"]
        if refs:
            out.append((f"line {i}: refs dropped", _mutate(items, i, refs=[])))
            out.append((f"line {i}: rule changed to K", _mutate(items, i, rule="K")))
            if len(refs) == 2:
                out.append(
                    (f"line {i}: refs swapped", _mutate(items, i, refs=refs[::-1]))
                )
            elif i > 1:
                j = (refs[0] + 1) % i
                if j != refs[0]:
                    out.append(
                        (f"line {i}: ref retargeted", _mutate(items, i, refs=[j]))
                    )
        else:
            out.append((f"line {i}: rule changed to MP", _mutate(items, i, rule="MP")))
            out.append(
                (
                    f"line {i}: formula boxed",
                    _mutate(items, i, formula="[](" + line["formula"] + ")"),
                )
            )
    assert len(out) >= limit, "fixture too small for the requested mutation count"
    return out[:limit]
