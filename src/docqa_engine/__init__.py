"""Document QA engine: hybrid lexical+semantic page retrieval with adaptive
result selection, gated synthetic QA generation, and ensemble
multiple-choice inference over a chat-completions endpoint.
"""
