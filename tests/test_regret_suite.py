"""Smoke test of ``tests/regret_suite.py`` on one tiny state."""

import json

import numpy as np

import regret_suite


def test_one_tiny_state_and_its_comparison(tmp_path):
    suite = regret_suite.run_suite(["vfe"], seeds=[3], knots=[4], rounds=2, n_rows=60)
    cases = suite["cases"]
    assert [c["round"] for c in cases] == [0, 1]
    for case in cases:
        assert case["pick_gain"] <= case["best_gain"]
        assert 0.0 <= case["regret"] <= 1.0
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(suite))
    again = json.loads(path.read_text())
    result = regret_suite.compare(again, again)["vfe"]
    assert result["cases"] == 2 and result["states"] == 1
    assert result["difference"] == 0.0 and result["interval"] == [0.0, 0.0]
    assert np.isclose(result["before"], np.mean([c["regret"] for c in cases]))
