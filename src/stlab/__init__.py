"""Desk-scale laboratory for multi-task speech translation.

A numpy implementation of the full pipeline: reverse-mode autodiff,
synthetic paired speech/text data, a three-partition transformer with
local-to-global feature extractors, alignment-driven sequence shrinking
with a looking-back mechanism, impact-scheduled auxiliary task weights,
and gradient-consistency analysis tooling. The package root exports
nothing: import each name from the module that defines it.
"""
