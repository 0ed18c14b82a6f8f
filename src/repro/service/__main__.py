"""``python -m repro.service`` — run the HTTP server, as ``repro-serve``
does (:func:`repro.service.http.serve_main`).

The server launches from the package: ``import repro`` has already
loaded :mod:`repro.service.http`, so ``python -m repro.service.http``
would run that module a second time as ``__main__`` and serve classes
other than the ones it exports.
"""

from .http import serve_main

if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(serve_main())
