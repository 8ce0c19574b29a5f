"""Exception types shared across the package.

Every error raised by a public operation is one of these, so callers can
distinguish bad input (shape, domain) from genuine mathematical failure
(singularity, broken relations) without string matching; the one other is
`ratmat.rat`'s TypeError for a Python value that no JSON value reaches.
"""


class NestquivError(Exception):
    """Base class for all package errors.

    exit_code is what the CLI returns when the error reaches it: 1 a
    verification failed, 2 malformed input, 3 a precondition violation.
    """
    exit_code = 1


class MalformedInput(NestquivError, ValueError):
    """Input that does not parse, or a file that cannot be read or written; also a ValueError."""
    exit_code = 2


class ShapeMismatch(NestquivError):
    """Matrix dimensions incompatible with the requested operation."""
    exit_code = 2


class Singular(NestquivError):
    """A square matrix required to be invertible is not."""
    exit_code = 1


class NotCommuting(NestquivError):
    """A pair of endomorphisms required to commute does not."""
    exit_code = 1


class ConeViolation(NestquivError):
    """Stability parameter outside the required open cone."""
    exit_code = 3


class NotWellDefined(NestquivError):
    """An induced map does not exist (subspace not preserved)."""
    exit_code = 1


class NotFixedForm(NestquivError):
    """Input is not in torus-fixed form (some column has > 1 nonzero entry)."""
    exit_code = 3


class IrregularPencil(NestquivError):
    """Every sampled chart gives a singular pencil combination."""
    exit_code = 3


class SingularAnu(NestquivError):
    """The pencil combination at the requested chart is singular."""
    exit_code = 3


class RelationsViolated(NestquivError):
    """Quiver relations fail where the operation needs them."""
    exit_code = 1


class NotCostable(NestquivError):
    """ADHM datum is not costable (closure of the covector is too small)."""
    exit_code = 1


class NotIntertwining(NestquivError):
    """A map fails to intertwine the structures it should relate."""
    exit_code = 1


class NotInjective(NestquivError):
    """A map required to be injective has a kernel."""
    exit_code = 1


class NotAnIdeal(NestquivError):
    """A span of polynomials is not closed under multiplication."""
    exit_code = 1


class BadPair(NestquivError):
    """A nested ideal pair violates containment or colength bookkeeping."""
    exit_code = 1


class NotStable(NestquivError):
    """Operation requires a stable representation."""
    exit_code = 1


class ExcludedLocus(NestquivError):
    """Point coordinates lie on the excluded locus of the surface."""
    exit_code = 3


class DomainError(NestquivError):
    """Input outside the supported domain (e.g. nested pair with c' = 0)."""
    exit_code = 3
