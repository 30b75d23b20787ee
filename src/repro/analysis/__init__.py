"""Analysis helpers: report rendering, capability tables, roofline,
service and tuner reports.  Import the submodule that holds a name
(``from repro.analysis.report import render_table``): the package
itself imports nothing, so loading one report never loads the tuner or
the service."""
