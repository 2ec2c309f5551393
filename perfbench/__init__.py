"""The repo benchmark: ``python3 perfbench/run.py --workload <name>`` (see NOTES.md)."""
