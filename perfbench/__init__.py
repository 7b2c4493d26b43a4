"""End-to-end and per-layer benchmark of the obsent CLI.

run.py is the entry point; worker.py runs one CLI invocation in a fresh
interpreter; inputs.py writes the seeded inputs with plain numpy; checks.py
validates each invocation's output; tracer.py wraps the library from outside
to attribute time to layers. Importing this package imports nothing heavy.
"""
