"""End-to-end, layer-attributed benchmark of the repro pipeline.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` for one workload, or ``python3 perfbench/suite.py`` for
every workload with a traced run each; see ``perfbench/README.md``.
"""
