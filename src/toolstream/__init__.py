"""toolstream: a replayable continual tool-use evaluation harness.

Pipeline: load a dialogue corpus, partition it into disjoint-API domain
blocks, render next-call prompts under stripped (A) or trajectory (B)
context, obtain greedy completions (live endpoint or recorded files),
score them with a strict call parser, and aggregate stage-by-block
accuracy matrices into continual-learning statistics.
"""

__version__ = "0.1.0"
