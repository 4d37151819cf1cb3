"""Example 2 from the paper: identifying a station-violence suspect.

Violence erupted in a train station; the suspect tapped a commuting
card at 12:11 pm.  Station logs narrow the pool to the cards that
entered in that window, but cards are anonymous.  Police match the
candidate card trajectories against CDR data to obtain a ranked list
of identifiable mobile subscribers.

This example exercises the *ranking* machinery (paper Section V):
candidates are ordered by the Eq. 2 score v = p1 * (1 - p2), and the
investigator works down the list.

Run:  python examples/crime_investigation.py
"""

import numpy as np

from repro import FTLConfig, LinkEngine
from repro.core.models import CompatibilityModel
from repro.geo.units import days_to_seconds, hours_to_seconds
from repro.synth import (
    CityModel,
    GaussianNoise,
    ObservationService,
    TowerSnapNoise,
    generate_population,
    make_paired_databases,
)


def main() -> None:
    rng = np.random.default_rng(23)
    city = CityModel.generate(rng)
    agents = generate_population(
        city, n_agents=40, duration_s=days_to_seconds(10), rng=rng,
        mobility="commuter",
    )
    transit = ObservationService(
        "transit", rate_per_hour=0.4, noise=GaussianNoise(60.0), day_fraction=0.95
    )
    cdr = ObservationService(
        "CDR", rate_per_hour=1.2, noise=TowerSnapNoise(city), day_fraction=0.9
    )
    pair = make_paired_databases(agents, transit, cdr, rng)

    config = FTLConfig()
    mr = CompatibilityModel.fit_rejection([pair.p_db, pair.q_db], config)
    ma = CompatibilityModel.fit_acceptance([pair.p_db, pair.q_db], config, rng)
    engine = LinkEngine(mr, ma)

    def rank(card):
        """Every subscriber as ``(id, v)``, by non-increasing Eq. 2 score."""
        [evidence] = engine.evidence([pair.p_db[card]], pair.q_db)
        scores = evidence.scores()
        order = np.argsort(-scores, kind="stable")
        return [(evidence.candidate_ids[i], scores[i]) for i in order]

    # The incident: day 3, 12:11 pm.  Cards that tapped within the
    # surrounding window are the anonymous suspect pool.
    incident_t = days_to_seconds(3) + hours_to_seconds(12) + 11 * 60
    window = hours_to_seconds(1.0)
    suspect_cards = [
        traj.traj_id
        for traj in pair.p_db
        if np.any(np.abs(traj.ts - incident_t) <= window)
    ]
    print(f"{len(suspect_cards)} cards tapped within +-1 h of the incident")

    # The (hidden) actual offender, for scoring the investigation.
    true_card = suspect_cards[0]
    print(f"(ground truth for this demo: card #{true_card} -> "
          f"subscriber {pair.truth[true_card]})\n")

    # Rank CDR subscribers for each suspect card; an investigator would
    # interview in rank order, so report the rank of the true subscriber.
    for card in suspect_cards[:5]:
        ranked = rank(card)
        true_rank = next(
            (i + 1 for i, (cid, _v) in enumerate(ranked)
             if cid == pair.truth.get(card)),
            None,
        )
        top3 = ", ".join(f"{cid}(v={v:.2f})" for cid, v in ranked[:3])
        print(f"card #{card}: top-3 = [{top3}]  "
              f"true subscriber at rank {true_rank}")

    ranks = []
    for card in suspect_cards:
        ranked = rank(card)
        ranks.append(next(
            (i + 1 for i, (cid, _v) in enumerate(ranked)
             if cid == pair.truth.get(card)),
            len(ranked),
        ))
    print(f"\nmedian rank of the true subscriber over "
          f"{len(suspect_cards)} suspect cards: {int(np.median(ranks))} "
          f"(out of {len(pair.q_db)} subscribers)")

    # Accountability: before acting, the investigator inspects *why* the
    # top match was made (per-segment evidence breakdown).
    from repro.core.explain import explain_pair

    top_match, _v = rank(true_card)[0]
    explanation = explain_pair(
        pair.p_db[true_card], pair.q_db[top_match], mr, ma
    )
    print(f"\nevidence for card #{true_card} -> {top_match}:")
    print(explanation.summary(k=4))


if __name__ == "__main__":
    main()
