"""Structured errors shared across the package.

Every error carries a machine-readable ``code`` so the CLI can surface
failures as JSON without string matching.
"""


class KreinCcrError(Exception):
    code = "Error"

    def __init__(self, message="", **payload):
        super().__init__(message or self.code)
        self.payload = payload


class IncompatibleAlgebras(KreinCcrError):
    code = "IncompatibleAlgebras"


class NotUnimodular(KreinCcrError):
    code = "NotUnimodular"


class NotInvolutive(KreinCcrError, ValueError):
    code = "NotInvolutive"


class ZeroVector(KreinCcrError):
    code = "ZeroVector"


class SingularTransformation(KreinCcrError):
    code = "SingularTransformation"


class DomainError(KreinCcrError):
    code = "DomainError"


class NonFinite(KreinCcrError, ValueError):
    code = "NonFinite"


class NotHermitian(KreinCcrError):
    code = "NotHermitian"


class Degenerate(KreinCcrError):
    code = "Degenerate"


class NotRegularizable(KreinCcrError):
    code = "NotRegularizable"


class NullSubrepresentation(KreinCcrError):
    code = "NullSubrepresentation"


class ZeroInput(KreinCcrError):
    code = "ZeroInput"


class ParseError(KreinCcrError):
    code = "ParseError"

    def __init__(self, message, offset, expected=()):
        super().__init__(message, offset=offset, expected=sorted(expected))
        self.offset = offset
        self.expected = sorted(expected)
