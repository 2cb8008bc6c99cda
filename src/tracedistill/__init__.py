"""tracedistill: execute visual programs over synthetic scenes, edit their
traces into concise chain-of-thought rationales, filter them by student
utility, and distill the survivors with a two-term multi-task loss.

The package root exports nothing; import the submodules."""

__version__ = "0.1.0"
