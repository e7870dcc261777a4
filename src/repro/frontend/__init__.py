"""The C front end: preprocessor, parser driver, type layout, lowering."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".cpp": ("Preprocessor", "PreprocessorError", "preprocess"),
    ".parser": (
        "ParseError",
        "parse_c_source",
        "load_program",
        "load_program_from_file",
        "load_project",
        "load_project_files",
    ),
})
