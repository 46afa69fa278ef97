"""Python half of the softsched benchmark (see perfbench/README.md)."""
