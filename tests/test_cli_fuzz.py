"""Fuzz the command line with malformed system and potential files.

Every case must end with exit 0, 2 or 3 and at most one line on stderr: no
traceback and no warning. Systems stay small (alphabets up to 12, memory up
to 4), so no case can ask for a large enumeration.
"""

import contextlib
import io
import itertools
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings, strategies as st

from shiftpress.cli import main
from shiftpress.potentials import VALUE_BOUND

COMMANDS = (
    ["pressure", "--n-max", "4"],
    ["pstar"],
    ["spectrum", "--cycle-cap", "2", "--grid", "2"],
    ["check", "--n-cap-check", "3"],
)

junk = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(), st.text(max_size=3),
    st.lists(st.integers(0, 1), max_size=3),
)
huge = st.one_of(
    st.floats(1e290, 1.7e308), st.floats(-1.7e308, -1e290),
    st.sampled_from([VALUE_BOUND, -VALUE_BOUND, 1e308, -1e308]),
)
values = st.one_of(
    st.floats(-5, 5), st.integers(-5, 5), st.sampled_from([float("nan"), float("inf"), -float("inf"), 10**400]),
    st.text(max_size=2), st.booleans(), st.none(), huge,
)


@st.composite
def cases(draw):
    """(system JSON, potential JSON). The system is a small matrix (maybe not
    strongly connected, maybe with a stranded symbol), a full shift with up
    to 12 symbols, a non-square or empty matrix, or junk. The potential
    starts as a complete table over the system's words and then may lose
    keys, gain extra or malformed ones, get non-numeric, non-finite or huge
    finite values (near the load bound on either side), a wrong memory, or
    be junk."""
    A = draw(st.integers(2, 4))
    matrix = draw(st.lists(st.lists(st.sampled_from([1, 1, 0]), min_size=A, max_size=A), min_size=A, max_size=A))
    full = draw(st.integers(2, 12))
    system = draw(st.sampled_from([
        {"alphabet": A, "transitions": matrix},
        {"alphabet": A, "transitions": matrix},
        {"alphabet": full, "full": True},
        {"alphabet": A, "transitions": matrix[:-1]},
        {"alphabet": A, "transitions": [row[:-1] for row in matrix]},
        {"alphabet": 0, "transitions": []},
        {"alphabet": draw(junk), "transitions": draw(junk)},
        draw(junk),
    ]))
    T = [[1] * full] * full if isinstance(system, dict) and system.get("full") is True else matrix
    memory = draw(st.integers(1, 3 if len(T) <= 4 else 2))
    words = [w for w in itertools.product(range(len(T)), repeat=memory)
             if all(T[a][b] for a, b in zip(w, w[1:]))]
    table = {"".join(map(str, w)): draw(st.floats(-5, 5)) for w in words}
    mutation = draw(st.sampled_from(["none", "none", "drop", "extra", "value", "huge", "memory", "table", "junk"]))
    if mutation == "huge":
        table = {k: draw(huge) for k in table}
    elif mutation == "drop" and table:
        del table[draw(st.sampled_from(sorted(table)))]
    elif mutation == "extra":
        table.update(draw(st.dictionaries(st.text("0123456789a-", max_size=4), st.floats(-5, 5), max_size=3)))
    elif mutation == "value" and table:
        table[draw(st.sampled_from(sorted(table)))] = draw(values)
    potential = {"memory": memory, "table": table}
    if mutation == "memory":
        potential["memory"] = draw(st.one_of(st.integers(-1, 4), junk))
    elif mutation == "table":
        potential["table"] = draw(junk)
    elif mutation == "junk":
        potential = draw(junk)
    return system, potential


def assert_clean_exit(system, potential, command):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, obj in (("system", system), ("potential", potential)):
            paths[name] = Path(tmp) / f"{name}.json"
            paths[name].write_text(json.dumps(obj))
        argv = [command[0], "--system", str(paths["system"]), "--potential", str(paths["potential"]),
                *command[1:], "--out", str(Path(tmp) / "artifact")]
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(argv)
    assert code in (0, 2, 3)
    assert err.getvalue().count("\n") <= 1, err.getvalue()
    assert not caught, [str(w.message) for w in caught]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(case=cases(), command=st.sampled_from(COMMANDS))
def test_malformed_inputs_exit_cleanly(case, command):
    assert_clean_exit(*case, command)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(A=st.integers(2, 4), memory=st.integers(1, 2), data=st.data(), command=st.sampled_from(COMMANDS))
def test_huge_values_exit_cleanly(A, memory, data, command):
    """Full-shift tables whose every value is huge and finite, near the load
    bound on either side."""
    table = {"".join(map(str, w)): data.draw(huge) for w in itertools.product(range(A), repeat=memory)}
    assert_clean_exit({"alphabet": A, "full": True}, {"memory": memory, "table": table}, command)
