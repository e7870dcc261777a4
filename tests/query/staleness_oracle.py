"""Oracle for staleness reports: *clean* must mean *identical*.

A procedure a :class:`~repro.query.invalidate.StaleReport` calls clean
keeps serving its stored facts (the demand tier does not route it, and
``reload`` carries its cached answers), so its index record in the old
store must be byte-identical to the record a fresh index of the edited
sources holds.  Both stores must come from a fresh analysis state
(``fresh_analysis_state()`` before lowering): records embed PTF uids.
"""

import json


def assert_clean_means_identical(report, old_store: dict, fresh_store: dict):
    old = old_store["index"]["procedures"]
    fresh = fresh_store["index"]["procedures"]
    for proc in report.clean:
        assert json.dumps(old.get(proc), sort_keys=True) == json.dumps(
            fresh.get(proc), sort_keys=True
        ), f"{proc} is reported clean but its facts moved"
