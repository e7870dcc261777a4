"""The ``repro`` subcommands: flags and handlers, one module per family.

:data:`repro.cli.COMMANDS` maps each command name to its module here.
Every module defines ``COMMANDS``, mapping each of its command names to
``(add_arguments, handler)``; ``add_arguments`` is ``None`` for a
command without flags.  The CLI imports a module only to run one of its
commands, so a one-shot ``repro query`` compiles no other command's
flags or handlers.
"""

#: exit-code convention: 0 clean, 2 hard error (nothing analyzable /
#: strict-mode abort), 4 partial results (analysis finished but the
#: degradation report is non-empty — some summaries are conservative)
EXIT_OK = 0
EXIT_ERROR = 2
EXIT_PARTIAL = 4
