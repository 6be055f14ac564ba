"""likenet: likedness centrality and the stability of like-rate ensembles.

A simulation toolkit for social graphs where agents exchange "likes"
at directed rates: solve the likedness-centrality fixed point, measure
how stable a sampled rate ensemble is under per-agent rate
perturbations, and run the Monte-Carlo analyses relating stability to
network structure.
"""

__version__ = "0.1.0"
