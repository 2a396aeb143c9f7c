"""Run the command-line tool as ``python -m ctm_lab``."""

from .cli import main_entry

if __name__ == "__main__":
    main_entry()
