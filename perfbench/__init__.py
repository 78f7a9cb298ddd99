"""Client-shaped benchmark of the serving stack; entry point ``perfbench/run.py``."""
