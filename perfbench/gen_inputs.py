"""Seeded input files for the benchmark, built with numpy only.

This module never imports shiftpress, so a change to the package cannot
change the inputs it is measured on. Fixed inputs:

* ``full2``: the full 2-shift, with the zero potential ``zero``;
* ``golden``: the golden-mean shift, with ``golden_phi`` = {0: 0.0, 1: 0.1}.

Seeded inputs, drawn from ``numpy.random.default_rng(seed)``:

* ``lift``: a 6-symbol SFT, each transition present with probability 0.7,
  redrawn until strongly connected, with a memory-5 potential uniform on
  [0, 1) (``lift_phi``);
* ``m2``: the same recipe on 4 symbols with a memory-2 potential
  (``m2_phi``).

Each system is also redrawn until its size lies in a narrow band: the lift
of ``lift`` (its admissible 4-words) has 400..430 states and 31..32
primitive cycles of length 3 or less, and ``m2`` has 150k..175k admissible
13-words, a length its ``check`` enumerates. The work of every command
grows with these sizes (from under a second to over a minute for ``check``
on unbanded draws), and ``spectrum --cycle-cap 3`` builds one interpolated
chain per short primitive cycle, so without the bands the spread across
seeds would be the spread of input sizes rather than of the program's
speed. Seed 0 draws the same systems with or without the bands.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

LIFT_ALPHABET, LIFT_MEMORY = 6, 5
M2_ALPHABET, M2_MEMORY = 4, 2
DENSITY = 0.7
# (word length, least count, greatest count) each system is redrawn into
LIFT_BAND = (LIFT_MEMORY - 1, 400, 430)
M2_BAND = (13, 150_000, 175_000)
# (longest cycle length, least count, greatest count) of primitive cycles
LIFT_CYCLES = (3, 31, 32)

FULL2 = {"alphabet": 2, "full": True}
GOLDEN = [[1, 1], [1, 0]]
GOLDEN_PHI = {"memory": 1, "table": {"0": 0.0, "1": 0.1}}


def strongly_connected(T: np.ndarray) -> bool:
    """Every symbol reaches every symbol (so none is stranded)."""
    A = T.shape[0]
    reach = T.astype(bool) | np.eye(A, dtype=bool)
    for _ in range(A):
        reach = reach | ((reach.astype(np.int64) @ reach.astype(np.int64)) > 0)
    return bool(reach.all())


def word_count(T: np.ndarray, length: int) -> int:
    """Number of admissible words of the given length."""
    v = np.ones(T.shape[0], dtype=np.int64)
    for _ in range(length - 1):
        v = T @ v
    return int(v.sum())


def primitive_cycle_count(T: np.ndarray, max_len: int) -> int:
    """Number of primitive cycles, one rotation each, of length at most max_len.

    A closed word is counted once, as its rotation that is strictly least:
    a periodic word equals one of its rotations and so has none.
    """
    count = 0
    for p in range(1, max_len + 1):
        for w in admissible_words(T, p).tolist():
            if T[w[-1], w[0]] and all(w < w[k:] + w[:k] for k in range(1, p)):
                count += 1
    return count


def random_sft(rng: np.random.Generator, alphabet: int, band: tuple,
               cycles: tuple = None) -> np.ndarray:
    length, lo, hi = band
    while True:
        T = (rng.random((alphabet, alphabet)) < DENSITY).astype(np.int64)
        if not (strongly_connected(T) and lo <= word_count(T, length) <= hi):
            continue
        if cycles is None or cycles[1] <= primitive_cycle_count(T, cycles[0]) <= cycles[2]:
            return T


def admissible_words(T: np.ndarray, length: int) -> np.ndarray:
    """All admissible words of the given length, lexicographic, one per row."""
    A = T.shape[0]
    out = np.arange(A).reshape(A, 1)
    for _ in range(length - 1):
        rows, nxt = np.nonzero(T[out[:, -1]])
        out = np.hstack([out[rows], nxt.reshape(-1, 1)])
    return out


def random_potential(rng: np.random.Generator, T: np.ndarray, memory: int) -> dict:
    words = admissible_words(T, memory)
    values = rng.random(len(words))
    table = {"".join(map(str, w)): float(v) for w, v in zip(words.tolist(), values)}
    return {"memory": memory, "table": table}


def zero_potential(alphabet: int) -> dict:
    return {"memory": 1, "table": {str(a): 0.0 for a in range(alphabet)}}


def generate(seed: int) -> dict:
    """name -> JSON-ready object for every input file."""
    rng = np.random.default_rng(seed)
    lift = random_sft(rng, LIFT_ALPHABET, LIFT_BAND, LIFT_CYCLES)
    lift_phi = random_potential(rng, lift, LIFT_MEMORY)
    m2 = random_sft(rng, M2_ALPHABET, M2_BAND)
    m2_phi = random_potential(rng, m2, M2_MEMORY)
    return {
        "full2": FULL2,
        "zero": zero_potential(2),
        "golden": {"alphabet": 2, "transitions": GOLDEN},
        "golden_phi": GOLDEN_PHI,
        "lift": {"alphabet": LIFT_ALPHABET, "transitions": lift.tolist()},
        "lift_phi": lift_phi,
        "m2": {"alphabet": M2_ALPHABET, "transitions": m2.tolist()},
        "m2_phi": m2_phi,
    }


def encode(inputs: dict) -> dict:
    """name -> file bytes (sorted keys, so equal inputs give equal bytes)."""
    return {name: (json.dumps(obj, sort_keys=True) + "\n").encode() for name, obj in inputs.items()}


def write_inputs(seed: int, out_dir: Path) -> dict:
    """Write ``<name>.json`` for every input into out_dir; return name -> path.

    Generates twice and compares the bytes, so a generator that stops being
    a pure function of the seed fails loudly instead of drifting.
    """
    files = encode(generate(seed))
    if files != encode(generate(seed)):
        raise RuntimeError(f"input generator is not deterministic for seed {seed}")
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, blob in files.items():
        path = out_dir / f"{name}.json"
        path.write_bytes(blob)
        paths[name] = path
    return paths

