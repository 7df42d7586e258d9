"""toolstream: a replayable continual tool-use evaluation harness.

Pipeline: load a dialogue corpus, partition it into disjoint-API domain
blocks, render next-call prompts under stripped (A) or trajectory (B)
context, obtain greedy completions (live endpoint or recorded files),
score them with a strict call parser, and aggregate stage-by-block
accuracy matrices into continual-learning statistics.
"""

__version__ = "0.1.0"

from .calls import (
    ApiCall,
    FailureReason,
    ParsedCall,
    ParseFailure,
    normalize_params,
    parse_first_call,
    render_call,
)
from .corpus import (
    DomainBlock,
    Episode,
    IngestionError,
    PartitionError,
    Role,
    ScoredExample,
    StreamSpec,
    Turn,
    extract_examples,
    load_corpus,
    partition_blocks,
    sample_eval_subset,
)
from .transform import (
    Condition,
    RenderedPrompt,
    context_stats,
    render_prompt,
    strip_trajectory,
)
from .scoring import (
    FLAGS,
    ErrorCategory,
    MetricFlags,
    ScoreRecord,
    aggregate_macro,
    rates,
)
from .clmetrics import (
    BaselineVector,
    EvalMatrix,
    aulc,
    average_accuracy,
    avg_forgetting,
    bwt,
    fwt,
    summarize,
)
from .genclient import (
    BatchResult,
    CompletionCache,
    CompletionRecord,
    EndpointConfig,
    batch_generate,
    generate_completion,
    import_completions,
)
