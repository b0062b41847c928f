"""The byte-identity gate: every `map`, `renorm` and `enum` output, hashed.

`tests/golden_outputs.json` holds one sha256 per (map, format), over every
single-slot map applied to the 65 trees of order <= 5 in each of the
`ascii`, `latex` and `json` formats, one per (ring, order), over `renorm`
for seeds 0-3 at the default `--d 4`, one per (d, order), over `renorm
--ring matrix --d d` for d = 1-3 and orders 1-6 on the same seeds, and one
per `enum` order: the listing
(`enum/n`, orders 0-11) and the count (`enum-count/n`, orders 0-13).  Each
digest covers the exit code, stdout and stderr of every run, so a failure
names the map, the renorm grid cell or the enum order whose output
changed.  A change that alters an output on purpose regenerates the file
with

    PYTHONPATH=src python3 tests/test_golden_outputs.py

and names the changed digests in its description.
"""

import contextlib
import hashlib
import io
import json
import os
import sys

from treehopf import cli
from treehopf.algebra import lift_linear
from treehopf.trees import all_trees_up_to, render

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_outputs.json")
MAP_MAX_ORDER = 5
FORMATS = ("ascii", "latex", "json")
RINGS = ("scalar", "matrix")
RENORM_ORDERS = range(1, 9)
RENORM_SEEDS = range(4)
RENORM_SMALL_D = range(1, 4)
RENORM_SMALL_D_ORDERS = range(1, 7)
ENUM_LIST_ORDERS = range(12)
ENUM_COUNT_ORDERS = range(14)


def _run(argv) -> bytes:
    """Exit code, stdout and stderr of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return f"{code}\n{out.getvalue()}\x00{err.getvalue()}\x00".encode()


def map_digests() -> dict:
    """'map/format' -> sha256 over the map's outputs on every small tree."""
    texts = [render(t) for t in all_trees_up_to(MAP_MAX_ORDER)]
    names = sorted(name for name, f in cli.MAPS.items() if len(f.tags) == 1)
    digests = {}
    for name in names:
        for fmt in FORMATS:
            h = hashlib.sha256()
            for text in texts:
                h.update(_run(["map", name, text, "--format", fmt]))
            digests[f"{name}/{fmt}"] = h.hexdigest()
    return digests


def renorm_digests() -> dict:
    """'ring/order' -> sha256 over the renorm reports of the seeds."""
    digests = {}
    for ring in RINGS:
        for order in RENORM_ORDERS:
            h = hashlib.sha256()
            for seed in RENORM_SEEDS:
                h.update(_run(["renorm", "--seed", str(seed), "--ring", ring, "--order", str(order)]))
            digests[f"{ring}/{order}"] = h.hexdigest()
    return digests


def renorm_small_d_digests() -> dict:
    """'d<d>/order' -> sha256 over the matrix-ring renorm reports of the
    seeds with d x d matrices."""
    digests = {}
    for d in RENORM_SMALL_D:
        for order in RENORM_SMALL_D_ORDERS:
            h = hashlib.sha256()
            for seed in RENORM_SEEDS:
                h.update(_run(["renorm", "--seed", str(seed), "--ring", "matrix", "--d", str(d), "--order", str(order)]))
            digests[f"d{d}/{order}"] = h.hexdigest()
    return digests


def enum_digests() -> dict:
    """'enum/n' -> sha256 over the listing of order n, 'enum-count/n' over its count."""
    digests = {}
    for n in ENUM_LIST_ORDERS:
        digests[f"enum/{n}"] = hashlib.sha256(_run(["enum", str(n)])).hexdigest()
    for n in ENUM_COUNT_ORDERS:
        digests[f"enum-count/{n}"] = hashlib.sha256(_run(["enum", str(n), "--count-only"])).hexdigest()
    return digests


def compute() -> dict:
    return {
        "map": map_digests(),
        "renorm": renorm_digests(),
        "renorm-small-d": renorm_small_d_digests(),
        "enum": enum_digests(),
    }


def _golden() -> dict:
    with open(GOLDEN) as f:
        return json.load(f)


def _changed(got: dict, want: dict) -> list:
    return sorted(key for key in want.keys() | got.keys() if got.get(key) != want.get(key))


def test_map_outputs_are_golden():
    assert _changed(map_digests(), _golden()["map"]) == []


def test_renorm_outputs_are_golden():
    assert _changed(renorm_digests(), _golden()["renorm"]) == []


def test_renorm_small_d_outputs_are_golden():
    assert _changed(renorm_small_d_digests(), _golden()["renorm-small-d"]) == []


def test_enum_outputs_are_golden():
    assert _changed(enum_digests(), _golden()["enum"]) == []


def test_grid_size():
    golden = _golden()
    single = [name for name, f in cli.MAPS.items() if len(f.tags) == 1]
    assert len(all_trees_up_to(MAP_MAX_ORDER)) == 65
    assert len(golden["map"]) == 3 * len(single)
    assert len(golden["renorm"]) == len(RINGS) * len(RENORM_ORDERS)
    assert len(golden["renorm-small-d"]) == len(RENORM_SMALL_D) * len(RENORM_SMALL_D_ORDERS)
    assert len(golden["enum"]) == len(ENUM_LIST_ORDERS) + len(ENUM_COUNT_ORDERS)


def test_damaged_map_changes_its_digests_and_its_composites(monkeypatch):
    # Negative control: sigma doubled changes sigma's digests and those of
    # delta-gamma, the one single-slot composite that reads it, and no others.
    sigma = cli.MAPS["sigma"]
    monkeypatch.setitem(cli.MAPS, "sigma", lift_linear(sigma.tags, sigma.out_tags, lambda w: sigma.word(w).scale(2)))
    changed = _changed(map_digests(), _golden()["map"])
    assert changed == sorted(f"{name}/{fmt}" for name in ("delta-gamma", "sigma") for fmt in FORMATS)


def test_swapped_texts_change_one_listing_digest(monkeypatch):
    # Negative control: two adjacent texts of order 7 swapped change the
    # order-7 listing and nothing else, not even the order-7 count.
    stream = cli.iter_rendered

    def swapped(n):
        texts = list(stream(n))
        if n == 7:
            texts[100], texts[101] = texts[101], texts[100]
        return iter(texts)

    monkeypatch.setattr(cli, "iter_rendered", swapped)
    assert _changed(enum_digests(), _golden()["enum"]) == ["enum/7"]


if __name__ == "__main__":
    with open(GOLDEN, "w") as f:
        json.dump(compute(), f, indent=2, sort_keys=True)
        f.write("\n")
    sys.exit(0)
