"""Diversity-driven LITE ensembles for time series classification.

Trains lightweight convolutional classifiers over the UCR-archive format
and builds ensembles whose members are pushed, during sequential training,
to produce feature representations decorrelated from every previously
trained member. Ships the matching evaluation stack: ensemble accuracy,
Wilcoxon/multi-comparison statistics, and feature/filter diversity
analysis (Frechet distances and warping distances between learned
filters).
"""

__version__ = "0.1.0"

from .tensor import (Tensor, backward, conv1d, embed_taps, batch_norm_1d, relu,
                     global_avg_pool, dense, softmax_cross_entropy,
                     cosine_similarity_matrix, absolute, sum_all)
from .optim import Adam, ReduceLROnPlateau
from .model import (LiteArchitectureConfig, LiteModel, build_custom_filters, init_model,
                    extract_final_filters, param_count, ratio_vs_reference,
                    model_checksum, save_model, load_model,
                    INCEPTIONTIME_REFERENCE_PARAM_COUNT)
from .data import (TimeSeriesDataset, load_ucr_split, load_dataset, z_normalize,
                   interpolate_missing, handle_irregular, batch_indices,
                   synthetic_trend_dataset)
from .training import (TrainConfig, TrainLog, sequential_orthogonality_loss, total_loss,
                       build_ensemble)
from .evaluation import (ensemble_predict, ensemble_accuracy, accuracy, prefix_accuracies,
                         wilcoxon_signed_rank, ResultsTable, MCMReport, mcm)
from .diversity import (FeatureStats, feature_statistics, fid, dtw,
                        filter_distance_matrix, embed_2d)

__all__ = [name for name in dir() if not name.startswith("_")]
