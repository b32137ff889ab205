"""perfbench: the repository benchmark (see README.md)."""
