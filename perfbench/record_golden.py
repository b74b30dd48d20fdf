"""Rewrites perfbench/golden.json from the current program.

    python3 perfbench/record_golden.py    (from the checkout root)
"""

import run

if __name__ == "__main__":
    run.prepare()
    import checks
    checks.record()
