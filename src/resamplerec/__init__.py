"""Resampling recommendation for imbalanced binary classification.

Resamplers (random over-/under-sampling, SMOTE), from-scratch classifiers,
a PR-AUC cross-validation harness, meta-feature extraction, two
meta-learning recommendation systems, and the recommendation-accuracy
assessment that compares them against static strategies.
"""

from .data import (Dataset, FoldAssignment, MixtureConfig, generate_mixture,
                   imbalance_ratio, ingest_csv, stratified_folds, write_csv)
from .evaluation import GridDef, QualityGrid, cv_quality, pr_auc, quality_grid
from .learners import LearnerSpec, predict_score
from .metafeatures import MetaFeatures, compute_meta_features, slog
from .qualityvars import binarize_targets, compute_quality_variables
from .recommender import (PRESETS, Recommendation, RecommenderModel,
                          build_meta_dataset, recommend, train_approach1,
                          train_approach2)
from .resampling import (ResamplingSpec, random_oversample, random_undersample,
                         resample, smote)
from .assessment import assess_bank, ecdf, recommendation_accuracies

__version__ = "0.1.0"
