"""Drowsiness-monitoring experiments on synthetic PPG signals.

Pipeline: synthetic labeled PPG generation, sub-band hyper-filtering,
Q-learning search over band layouts, a dilated temporal residual CNN with
from-scratch backprop, and driving-scene utilities (criss-cross attention,
salient-box filtering, mean IoU).
"""

from .signal_gen import (
    AnsState,
    DROWSY_PRESET,
    Label,
    NoiseSpec,
    PpgSignal,
    WAKEFUL_PRESET,
    add_noise,
    generate_ppg,
)
from .filterbank import (
    FilteredStack,
    FilterKernel,
    HyperFilterConfig,
    PatternDataset,
    PatternSignal,
    SignalTooShortError,
    apply_filter,
    design_bandpass,
    hyper_filter,
    pattern_rows,
    pattern_signals,
    subband_edges,
)
from .band_search import (
    RlParams,
    SearchSpace,
    SpaceTooLargeError,
    enumerate_best,
    fisher_score,
    q_learn,
    reward,
)
from .tdcnn import (
    ArchSpec,
    Assessment,
    MlpModel,
    TdcnnModel,
    TrainParams,
    assess,
    assess_window,
    forward,
    init_model,
    loss_and_grad,
    train,
    train_baseline_mlp,
)
from .vision import (
    BoundingBox,
    RccaWeights,
    cc_attention,
    filter_salient,
    init_rcca_weights,
    miou,
    rcca,
)
from .pipeline import (
    PipelineConfig,
    PipelineError,
    RunManifest,
    default_config,
    eval_report,
    run_pipeline,
)

__version__ = "0.1.0"
