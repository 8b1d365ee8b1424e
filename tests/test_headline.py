"""The paper's headline: ACD more than doubles OTIC's coverage at almost
the same precision.

Pinned on seeded 13-language synthetic instances with the default
`InferenceParams`, the pair `aa`->`ab` and the pivot `ac`.
"""
import pytest

from lexinduce import InferenceParams, SynthParams, evaluate, generate, predict


@pytest.mark.parametrize("seed", [7000, 7001, 7002, 7003])
def test_acd_doubles_otic_coverage_at_almost_its_precision(seed):
    inst = generate(SynthParams(n_langs=13, n_senses=1000, polysemy_rate=0.1, edge_prob=0.3, seed=seed))
    gold = inst.gold[("aa", "ab")]
    otic, acd = (
        evaluate([(sp.source, sp.target) for sp in predict(inst.graph, algo, "aa", "ab", InferenceParams(), "ac")], gold)
        for algo in ("otic", "acd")
    )
    assert otic.coverage > 0
    assert acd.coverage >= 2 * otic.coverage
    assert acd.precision >= otic.precision - 0.05
