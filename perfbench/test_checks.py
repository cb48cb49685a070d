"""The checkers accept real outputs and reject corrupted ones.

Run with ``python3 -m pytest perfbench``.  Each test takes a small op of
one kind from a seeded workload, runs it through ``volrigid.cli.run``,
and shows that the checker passes the true output and raises on a
corrupted copy; the last two show that a run counts corrupted, changed
and erroring outputs as failed executions.
"""

from __future__ import annotations

import json
import sys

import pytest

import checks
import run
import workloads

sys.path.insert(0, str(run.SRC))
import volrigid.cli as cli  # noqa: E402


def _smallest(ops, kind):
    return min((op for op in ops if op.kind == kind), key=lambda op: op.size)


@pytest.fixture(scope="module")
def census_ops(tmp_path_factory):
    return workloads.make_ops("census", 3, str(tmp_path_factory.mktemp("census")))


def _output(op) -> str:
    rc, out, err = run.invoke(cli, op.argv)
    assert (rc, err) == (0, "")
    return out


def _rejects(op, payload) -> None:
    with pytest.raises(checks.CheckError):
        checks.check(op, json.dumps(payload))


@pytest.mark.parametrize("family", ["m004", "m125"])
def test_prime_seq_shifted_or_dropped_witness(family):
    op = min((o for o in workloads.make_ops("search", 3, "") if o.meta["family"] == family
              and o.meta["count"] >= 2), key=lambda o: o.size)
    text = _output(op)
    checks.check(op, text)
    out = json.loads(text)
    shifted = json.loads(text)
    shifted["witnesses"][0]["value"] += out["modulus"] * (2 if family == "m125" else 1)
    _rejects(op, shifted)
    skipped = json.loads(text)
    del skipped["witnesses"][0]
    _rejects(op, skipped)
    swapped = json.loads(text)
    x, y = swapped["witnesses"][-1]["representation"]
    swapped["witnesses"][-1]["representation"] = [x + 1, y]
    _rejects(op, swapped)


def test_certify_wrong_gap_or_count():
    ops = workloads.make_ops("certify", 3, "")
    for kind in ("certify", "qf-gap"):
        op = _smallest(ops, kind)
        text = _output(op)
        checks.check(op, text)
        out = json.loads(text)
        if kind == "qf-gap":
            for wrong in (out["gap"] + 1, out["gap"] - 1):
                _rejects(op, dict(out, gap=wrong))
        else:
            scale = checks.CUSPS[op.meta["manifold"]][1]
            _rejects(op, dict(out, gap_normalized=out["gap_normalized"] + 1 / scale))
            _rejects(op, dict(out, n_q0=out["n_q0"] + 1))
            _rejects(op, dict(out, bound="1/7"))


def test_mutant_dropped_class(census_ops):
    op = _smallest(census_ops, "mutant-classes")
    out = json.loads(_output(op))
    checks.check(op, json.dumps(out))
    _rejects(op, dict(out, classes=out["classes"][1:]))
    _rejects(op, dict(out, classes=out["classes"][1:], count=out["count"] - 1))
    bad = list(out["classes"])
    i = next(k for k, word in enumerate(bad) if word[::-1] != word)
    bad[i] = bad[i][::-1]  # same class, not its canonical word
    _rejects(op, dict(out, classes=bad))


def test_mutant_census_and_graph(census_ops):
    op = _smallest(census_ops, "mutant-census")
    out = json.loads(_output(op))
    checks.check(op, json.dumps(out))
    _rejects(op, dict(out, class_count=out["class_count"] + 1))
    op = max((o for o in census_ops if o.kind == "mutant-graph"), key=lambda o: o.size)
    out = json.loads(_output(op))
    checks.check(op, json.dumps(out))
    _rejects(op, dict(out, canonical=out["word"][::-1]))
    _rejects(op, dict(out, i_sequence=out["i_sequence"][::-1] + [0]))


def test_census_hist_split_cluster(census_ops):
    op = _smallest(census_ops, "census-hist")
    out = json.loads(_output(op))
    checks.check(op, json.dumps(out))
    i = next(k for k, c in enumerate(out) if c["count"] > 1)
    first, rest = out[i]["names"][:1], out[i]["names"][1:]
    split = out[:i] + [
        dict(out[i], count=1, names=first),
        dict(out[i], count=len(rest), names=rest),
    ] + out[i + 1:]
    _rejects(op, split)
    merged = out[:i] + [dict(out[i], count=out[i]["count"] + out[i + 1]["count"],
                             names=out[i]["names"] + out[i + 1]["names"])] + out[i + 2:]
    _rejects(op, merged)


def test_corrupted_output_counts_as_failed(tmp_path):
    ops = workloads.make_ops("certify", 5, "")[:4]
    outputs = run.Outputs(tmp_path, len(ops))
    texts = [_output(op) for op in ops]
    corrupt = json.loads(texts[2])
    corrupt["n_q0" if ops[2].kind == "certify" else "gap"] += 1
    for _ in range(3):  # three rounds
        for i, text in enumerate(texts):
            outputs.record(i, 0, json.dumps(corrupt) if i == 2 else text, "")
    wrong = run.tally(ops, outputs)
    assert wrong == {2}
    assert outputs.attempted == 12 and sum(outputs.failures) == 3


def test_changed_output_and_errors_count_as_failed(tmp_path):
    ops = workloads.make_ops("certify", 5, "")[:2]
    outputs = run.Outputs(tmp_path, len(ops))
    text = _output(ops[0])
    for suffix in ("", " "):  # two rounds; op 0's output changes in the second
        outputs.record(0, 0, text + suffix, "")
        outputs.record(1, 1, "", "error: boom\n")
    assert run.tally(ops, outputs) == {0}
    assert outputs.failures == [1, 2]
