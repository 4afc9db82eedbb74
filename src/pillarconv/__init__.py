"""Sparse pillar convolutions with selective dilation.

2D pillar grids with sparse active sets, four convolution execution modes
(dense, full sparse, submanifold, selective dilation), importance-driven
pillar selection, a staged backbone with an upsampling neck, synthetic
scene generation, and a cycle model for a streaming rule-generation
accelerator. Everything is deterministic given explicit seeds.
"""

__version__ = "0.1.0"

from .accel import (
    AcceleratorConfig,
    LayerCycles,
    MappingStats,
    NetworkCycles,
    cycles_to_dict,
    dense_baseline_cycles,
    gemm_cycles_sparse,
    generate_rules_pipelined,
    mapping_stats_3x3,
    mapping_stats_strided,
    simulate_layer,
    simulate_network,
    stall_cycles,
)
from .backbone import (
    ConvMode,
    LayerRecord,
    LayerSpec,
    NetworkResult,
    NetworkSpec,
    SelectionSpec,
    StageSpec,
    dense_flops_of_spec,
    make_centerpoint_backbone,
    make_pillarnet_neck,
    make_pointpillars,
    network_from_json,
    network_to_json,
    override_topk_percent,
    plan_layers,
    preset_network,
    run_network,
    total_flops,
    validate_network,
    with_body_mode,
)
from .conv import (
    Kernel,
    Rulebook,
    build_rulebook_deconv2x2,
    build_rulebook_downsample2x2,
    build_rulebook_selective,
    build_rulebook_sparse,
    build_rulebook_subm,
    dense_conv_oracle,
    dense_deconv_oracle,
    execute_rulebook,
    flops_of_rulebook,
)
from .errors import (
    BadKernelShapeError,
    BadVectorLengthError,
    DensityOverflowError,
    DuplicateCoordError,
    EmptyCalibrationPoolError,
    FormatError,
    NonFiniteValueError,
    OutOfBoundsError,
    PillarConvError,
    SelectionNotSubsetError,
    ShapeMismatchError,
    SpecMismatchError,
    StrideUnsupportedError,
    UnsortedInputError,
)
from .importance import (
    Aggregate,
    ImportanceConfig,
    Measure,
    Scores,
    Selection,
    calibrate_threshold,
    pillar_importance,
    select_threshold,
    select_topk,
    selection_flags,
    topk_count,
)
from .scenes import SCENE_PRESETS, SceneSpec, generate, preset_scene
from .tensor import (
    Coord,
    DenseGrid,
    PillarTensor,
    concat_channels,
    from_dense,
    from_entries,
    load_plt,
    save_plt,
    validate_coords,
)
