"""Extension bench: prefilter pruning.

Measures how much work the conservative mutual-segment prefilter
removes without losing true matches.
"""

import numpy as np

from benchmarks.conftest import cached_scenario, print_header, scale_name
from repro.core.linker import FTLLinker
from repro.core.prefilter import MutualSegmentCountPrefilter
from repro.pipeline.experiment import fit_model_pair


def test_prefilter_pruning(benchmark, config):
    pair = cached_scenario(scale_name("SC"))
    rng = np.random.default_rng(20)
    mr, ma = fit_model_pair(pair, config, rng)
    qids = pair.sample_queries(min(20, len(pair.truth)), rng)

    prefilter = MutualSegmentCountPrefilter(config, min_segments=3)

    def count_survivors():
        kept = 0
        total = 0
        for qid in qids:
            query = pair.p_db[qid]
            for candidate in pair.q_db:
                total += 1
                kept += prefilter.keep(query, candidate)
        return kept, total

    kept, total = benchmark.pedantic(count_survivors, rounds=1, iterations=1)

    # Perceptiveness with and without the prefilter.
    def hits(linker):
        return sum(
            1
            for qid in qids
            if linker.link(pair.p_db[qid]).contains(pair.truth[qid])
        )

    base = FTLLinker(config, phi_r=0.1).with_models(mr, ma, pair.q_db)
    pruned = FTLLinker(
        config, phi_r=0.1, prefilter=prefilter
    ).with_models(mr, ma, pair.q_db)
    base_hits, pruned_hits = hits(base), hits(pruned)

    print_header("Prefilter pruning (min 3 in-horizon mutual segments)")
    print(f"candidate pairs kept: {kept}/{total} ({100 * kept / total:.0f}%)")
    print(f"true matches found:   base={base_hits}/{len(qids)}  "
          f"prefiltered={pruned_hits}/{len(qids)}")
    # Conservative pruning: loses at most one true match here.
    assert pruned_hits >= base_hits - 1
