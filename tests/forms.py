"""Which executable form the fused layer picked, for engine tests.

Every engine reaches the vector kernel or the rowwise stream through
``run_levels``, imported by name into its module; patching that name in
one module records the choices that module's engines make.
"""


def record_forms(monkeypatch, module):
    """The form each ``module.run_levels`` call picks from here on, in
    call order (a list that grows as the engines run)."""
    forms = []
    real = module.run_levels

    def recording(ws, rowwise_min_words, times=None):
        forms.append(real(ws, rowwise_min_words, times))
        return forms[-1]

    monkeypatch.setattr(module, "run_levels", recording)
    return forms
