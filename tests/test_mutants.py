"""The mutation table stays true to the code: each old text is where it says."""

from pathlib import Path

import pytest

import mutants

SOURCES = sorted(mutants.ROOT.glob("src/**/*.py"))


@pytest.mark.parametrize("mutant", mutants.TABLE,
                         ids=[f"{Path(m.path).stem}-{k}" for k, m in enumerate(mutants.TABLE)])
def test_old_text_occurs_once_in_src(mutant):
    counts = {path: path.read_text().count(mutant.old) for path in SOURCES}
    assert counts[mutants.ROOT / mutant.path] == sum(counts.values()) == 1
    assert mutant.new != mutant.old


def test_each_node_names_a_test():
    for m in mutants.TABLE:
        if m.killed:
            path, *names = m.verdict.split("::")
            test = names[-1].partition("[")[0]
            assert f"def {test}(" in (mutants.ROOT / path).read_text(), m.verdict
        else:
            assert m.verdict.removeprefix(mutants.EQUIVALENT).strip(), m


def test_table_size():
    assert len(mutants.TABLE) >= 40
    assert len({(m.path, m.old) for m in mutants.TABLE}) == len(mutants.TABLE)
    # every module with a decision of its own has a mutant that a test kills
    killed = {Path(m.path).stem for m in mutants.TABLE if m.killed}
    assert killed >= {"chain", "spline", "interpolation", "cli", "bounds", "checks"}
