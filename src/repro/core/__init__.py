"""HDC core (S1-S4): the paper's primary contribution.

Packed binary hypervectors, the §II-B encoders (linear/level, binary,
categorical), majority-vote bundling, the record-encoding pipeline, and
the §II-C Hamming-distance classifier.
"""

from repro.core.hypervector import (
    Hypervector,
    pack_bits,
    unpack_bits,
    random_packed,
    exact_half_dense,
    popcount,
    xor_packed,
    flip_bits,
    n_words,
)
from repro.core.distance import (
    hamming_rowwise,
    hamming_block,
    pairwise_hamming,
    normalized_pairwise_hamming,
    pairwise_distance,
    available_metrics,
)
from repro.core.search import (
    HDIndex,
    topk_hamming,
    topk_hamming_reference,
    argmin_hamming,
    loo_topk_hamming,
    loo_topk_hamming_reference,
    topk_rows,
    vote_counts,
)
from repro.core.encoding import (
    LevelEncoder,
    BinaryEncoder,
    CategoricalEncoder,
    EncoderNotFittedError,
)
from repro.core.bundling import (
    majority_vote,
    majority_vote_batch,
    weighted_majority,
)
from repro.core.records import FeatureSpec, RecordEncoder, infer_feature_specs
from repro.core.itemmemory import ItemMemory
from repro.core.classifier import HammingClassifier, PrototypeClassifier, coerce_packed
from repro.core.online import OnlineHDClassifier
from repro.core import bipolar
from repro.core.spaces import HypervectorSpace
from repro.core.sequence import NGramEncoder, permute
from repro.core.explain import (
    Saliency,
    occlusion_saliency,
    substitution_saliency,
    cohort_reference,
)

__all__ = [
    "Hypervector",
    "pack_bits",
    "unpack_bits",
    "random_packed",
    "exact_half_dense",
    "popcount",
    "xor_packed",
    "flip_bits",
    "n_words",
    "hamming_rowwise",
    "hamming_block",
    "pairwise_hamming",
    "HDIndex",
    "topk_hamming",
    "topk_hamming_reference",
    "argmin_hamming",
    "loo_topk_hamming",
    "loo_topk_hamming_reference",
    "topk_rows",
    "vote_counts",
    "normalized_pairwise_hamming",
    "pairwise_distance",
    "available_metrics",
    "LevelEncoder",
    "BinaryEncoder",
    "CategoricalEncoder",
    "EncoderNotFittedError",
    "majority_vote",
    "majority_vote_batch",
    "weighted_majority",
    "FeatureSpec",
    "RecordEncoder",
    "infer_feature_specs",
    "ItemMemory",
    "HammingClassifier",
    "PrototypeClassifier",
    "coerce_packed",
    "OnlineHDClassifier",
    "bipolar",
    "HypervectorSpace",
    "NGramEncoder",
    "permute",
    "Saliency",
    "occlusion_saliency",
    "substitution_saliency",
    "cohort_reference",
]
