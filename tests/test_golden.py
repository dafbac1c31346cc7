"""The Fock relation reports and the suite lines of every check match the
committed digests in tests/golden.json (regenerated by tests/golden.py)."""

import json

import golden


def test_results_match_the_golden_digests(tmp_path):
    want = json.loads(golden.GOLDEN.read_text())
    got = golden.digests(tmp_path)
    assert sorted(got) == sorted(want)
    changed = [name for name in want if got[name] != want[name]]
    assert not changed, f"results changed: {changed}"
