"""The committed mutant list of `scripts/mutants.py` stays applicable: every
entry's old text occurs exactly once in its file at this revision, its new
text differs, and the file of each test in its selection (a file or a
pytest node id) exists.  The hypothesis profile that the script selects is
tier-1's without its shrink phase.  No mutant is run here; run
`python3 scripts/mutants.py` for the verdicts."""

import runpy
from pathlib import Path

import pytest
from hypothesis import Phase, settings

ROOT = Path(__file__).resolve().parents[1]
MUTANTS = runpy.run_path(str(ROOT / "scripts" / "mutants.py"), run_name="mutants")


@pytest.mark.parametrize("mutant", MUTANTS["MUTANTS"], ids=lambda m: m.name)
def test_old_text_occurs_once(mutant):
    assert MUTANTS["source"](mutant).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old
    assert all((ROOT / path.split("::")[0]).is_file() for path in mutant.tests)


def test_profile_is_default_without_shrinking():
    profile, default = settings.get_profile(MUTANTS["PROFILE"]), settings.get_profile("default")
    assert set(profile.phases) == set(default.phases) - {Phase.shrink}
    assert profile.deadline == default.deadline
    assert profile.suppress_health_check == default.suppress_health_check
    assert profile.max_examples == default.max_examples
