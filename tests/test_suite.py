from kform import suite
from kform.levi import levi_signatures
from kform.scenarios import DEFAULT_SEED, run_checks
from kform.spaceforms import projective


def test_c05_records_show_the_observed_signatures(monkeypatch):
    def skewed(sf, p, r, count, seed, radius=None):
        signatures, low = levi_signatures(sf, p, r, count, seed, radius)
        if sf == projective(2) and p == 2:
            # the expected (2, 0, 0), then one wrong signature
            return signatures + ((1, 0, 1),), low
        return signatures, low

    monkeypatch.setattr(suite, "levi_signatures", skewed)
    records = {rec.name: rec for rec in run_checks([suite._c05(DEFAULT_SEED)])}
    top = records["c05_levi_projective_top"]
    # the first signature off its expectation, not the family's last case
    assert top.verdict == "FAIL" and top.signature == (1, 0, 1)
    # passing families show their last case's signature
    mixed, ball = records["c05_levi_projective_mixed"], records["c05_levi_ball"]
    assert mixed.verdict == "PASS" and mixed.signature == (3, 0, 2)
    assert ball.verdict == "PASS" and ball.signature == (0, 0, 5)
