"""trackmerge: greedy selection and linking of per-frame segmentation mask
proposals into temporally consistent multi-object video tracks."""

from .ensemble import majority_vote
from .errors import FlowError, ManifestError, MaskError, TrackmergeError
from .flow import FlowField, load_flo, save_flo, warp_mask
from .labelmap import LabelMap, read_pgm, write_pgm
from .manifest import (
    GroundTruthObject,
    Proposal,
    VideoManifest,
    filter_manifest,
    filter_proposals,
    load_manifest,
    save_manifest,
)
from .mask import BBox, Mask, boundary, dilate, intersection_area, iou
from .merging import TrackSet, greedy_merge, oracle_merge, save_trackset
from .metrics import EvalResult, evaluate, f_measure, j_measure, sequence_stats
from .scoring import (
    WeightVector,
    combined_score,
    compute_video_max_distances,
    effective_weights,
    inverse_scores,
    reid_score,
)
from .search import SearchConfig, SearchResult, random_search
from .synth import (
    ScenarioSpec,
    ShapeSpec,
    crossing_scenario,
    generate,
    random_scenario,
    single_object_scenario,
)

__version__ = "0.1.0"
