"""tracedistill: execute visual programs over synthetic scenes, edit their
traces into concise chain-of-thought rationales, filter them by student
utility, and distill the survivors with a two-term multi-task loss."""

from .codegen import Program, generate_program, generate_programs
from .dsl import Ast, AstNode, parse
from .editing import (
    CotRationale,
    PrunedTrace,
    SymbolicRecord,
    SymbolicTrace,
    TaggedDraft,
    bridge,
    merge,
    prune,
    render,
    tag_gaps,
)
from .distill import (
    DistillExample,
    ToyModel,
    emit_dataset,
    grad_check,
    loss,
    train,
)
from .interp import (
    ExecutionTrace,
    StepLimits,
    TraceEvent,
    execute,
    faithfulness_filter,
    normalize_answer,
)
from .scenes import (
    Patch,
    Query,
    Scene,
    SceneObject,
    answer_oracle,
    generate_queries,
    generate_scenes,
    load_scenes,
    save_scenes,
)
from .students import (
    ScoredRationale,
    StudentOracle,
    UtilityOutcome,
    builtin_students,
    filter_by_score,
    utility_score,
)

__version__ = "0.1.0"
