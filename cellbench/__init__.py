"""Paper-scale co-exploration benchmark (run it with ``python3 cellbench/run.py``)."""
