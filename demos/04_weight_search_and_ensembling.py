"""Random search over score weights and majority-vote ensembling.

Searches the weight simplex on a small corpus, then combines the merges
produced by the top-ranked weight vectors with a per-pixel majority vote.
"""

from trackmerge import (
    SearchConfig,
    evaluate,
    filter_manifest,
    generate,
    greedy_merge,
    majority_vote,
    random_search,
)
from trackmerge.synth import crossing_scenario, random_scenario

corpus = []
for seed in (0, 1, 2):
    r = generate(random_scenario(seed, noise=0.4, spurious_rate=0.8))
    corpus.append((filter_manifest(r.manifest), r.gt_all_frames))
hard = generate(crossing_scenario())
corpus.append((filter_manifest(hard.manifest), hard.gt_all_frames))

# Candidates are drawn uniformly from the 4-simplex (normalized exponentials)
# from a single seeded generator, with the equal-weights vector always
# included as candidate 0, so the search can only improve on it. The draw is
# done up front, which makes serial and parallel runs bit-identical.
cfg = SearchConfig(sample_count=100, seed=0, top_k=5)
res = random_search(corpus, cfg, jobs=2)
print("best mean J&F over corpus:", round(res.best_score, 4))
print("best weights:", res.best_weights)
equal_score = res.scores[0]  # candidate 0 is equal weights
print("equal-weights baseline:", round(equal_score, 4))
# On this small synthetic corpus the balanced baseline is already optimal, so
# the search reports it back unchanged; on harder data the top of the ranking
# shifts mass toward whichever cue is decisive there.
worst = res.ranked[-1]
print("worst sampled vector scores:", round(worst[2], 4))

# Ensembling: run the merger once per top weight vector, then take the
# per-pixel majority label (ties go to the smallest label, background
# included only when it actually received votes).
runs = [greedy_merge(hard.manifest, w).label_maps for w in res.top_k_weights]
voted = majority_vote(runs)
print("ensemble of top", len(runs), "weight vectors on the crossing video:",
      evaluate(voted, hard.gt_all_frames).jf_mean)
