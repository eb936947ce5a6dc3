"""The :class:`CRN` class: a chemical reaction network set up to compute a function.

Following Section 2.2 of the paper, a CRN designated to compute a function
``f : N^d -> N`` has an ordered tuple of input species ``X_1, ..., X_d``, an
output species ``Y``, and (optionally) a leader species ``L``.  The initial
configuration for input ``x`` has ``x(i)`` copies of ``X_i``, one copy of the
leader (if any), and nothing else.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.crn.configuration import Configuration
from repro.crn.reaction import Reaction, parse_reaction
from repro.crn.species import Species


class CRN:
    """A chemical reaction network with designated input/output/leader species.

    Parameters
    ----------
    reactions:
        The reactions of the network (as :class:`Reaction` objects or strings
        parseable by :func:`repro.crn.reaction.parse_reaction`).
    input_species:
        Ordered input species ``(X_1, ..., X_d)``.
    output_species:
        The single output species ``Y``.
    leader:
        Optional leader species ``L`` present with count 1 initially.
    name:
        Optional human-readable name for the network.
    """

    def __init__(
        self,
        reactions: Iterable[Reaction | str],
        input_species: Sequence[Species],
        output_species: Species,
        leader: Optional[Species] = None,
        name: str = "",
    ) -> None:
        parsed: List[Reaction] = []
        for rxn in reactions:
            if isinstance(rxn, str):
                parsed.append(parse_reaction(rxn))
            elif isinstance(rxn, Reaction):
                parsed.append(rxn)
            else:
                raise TypeError(f"reactions must be Reaction or str, got {type(rxn).__name__}")
        self._reactions: Tuple[Reaction, ...] = tuple(parsed)
        self._input_species: Tuple[Species, ...] = tuple(input_species)
        self._output_species = output_species
        self._leader = leader
        self.name = name
        self._compiled = None
        self._validate()

    # -- validation ----------------------------------------------------------

    def _validate(self) -> None:
        if len(set(self._input_species)) != len(self._input_species):
            raise ValueError("input species must be distinct")
        if self._output_species in self._input_species:
            raise ValueError("the output species may not also be an input species")
        if self._leader is not None:
            if self._leader in self._input_species:
                raise ValueError("the leader may not be an input species")
            if self._leader == self._output_species:
                raise ValueError("the leader may not be the output species")
        if not isinstance(self._output_species, Species):
            raise TypeError("output_species must be a Species")
        for sp in self._input_species:
            if not isinstance(sp, Species):
                raise TypeError("input species must be Species instances")

    # -- basic accessors -----------------------------------------------------

    @property
    def reactions(self) -> Tuple[Reaction, ...]:
        """The reactions of the network."""
        return self._reactions

    @property
    def input_species(self) -> Tuple[Species, ...]:
        """The ordered input species ``(X_1, ..., X_d)``."""
        return self._input_species

    @property
    def output_species(self) -> Species:
        """The output species ``Y``."""
        return self._output_species

    @property
    def leader(self) -> Optional[Species]:
        """The leader species ``L``, or ``None`` for a leaderless network."""
        return self._leader

    @property
    def dimension(self) -> int:
        """The input arity ``d`` of the function this CRN computes."""
        return len(self._input_species)

    def species(self) -> Tuple[Species, ...]:
        """Every species mentioned anywhere in the network, sorted by name."""
        seen = set(self._input_species) | {self._output_species}
        if self._leader is not None:
            seen.add(self._leader)
        for rxn in self._reactions:
            seen.update(rxn.species())
        return tuple(sorted(seen, key=lambda s: s.name))

    def auxiliary_species(self) -> Tuple[Species, ...]:
        """Species that are neither inputs, the output, nor the leader."""
        special = set(self._input_species) | {self._output_species}
        if self._leader is not None:
            special.add(self._leader)
        return tuple(sp for sp in self.species() if sp not in special)

    def size(self) -> Dict[str, int]:
        """Summary of the network size (species count, reaction count, max order)."""
        return {
            "species": len(self.species()),
            "reactions": len(self._reactions),
            "max_order": max((r.order() for r in self._reactions), default=0),
        }

    # -- structural properties (Section 2.3) ----------------------------------

    def is_leaderless(self) -> bool:
        """True if the network has no leader species."""
        return self._leader is None

    def is_output_oblivious(self) -> bool:
        """True if the output species never appears as a reactant.

        This is the paper's central structural property: output-oblivious CRNs
        are exactly the CRNs composable by concatenation (Section 2.3).
        """
        return not any(rxn.consumes(self._output_species) for rxn in self._reactions)

    def is_output_monotonic(self) -> bool:
        """True if no reaction strictly decreases the count of the output species.

        Output-monotonic CRNs compute the same class of functions as
        output-oblivious ones (Observation 2.4).
        """
        return all(rxn.net_change(self._output_species) >= 0 for rxn in self._reactions)

    def output_consuming_reactions(self) -> Tuple[Reaction, ...]:
        """The reactions that use the output species as a reactant."""
        return tuple(rxn for rxn in self._reactions if rxn.consumes(self._output_species))

    def make_output_oblivious(self, catalyst_name: str = "Z_cat") -> "CRN":
        """Convert an output-monotonic CRN into an output-oblivious one.

        Implements the transformation of Observation 2.4: every occurrence of
        the output species ``Y`` as a catalyst is replaced by a fresh catalyst
        species that is produced alongside ``Y``.  Raises ``ValueError`` if the
        network is not output-monotonic (in which case no such transformation
        exists in general).
        """
        if self.is_output_oblivious():
            return self
        if not self.is_output_monotonic():
            raise ValueError("only output-monotonic CRNs can be made output-oblivious")
        y = self._output_species
        catalyst = Species(self._fresh_name(catalyst_name))
        new_reactions: List[Reaction] = []
        for rxn in self._reactions:
            consumed = rxn.reactant_count(y)
            if consumed == 0:
                produced = rxn.product_count(y)
                if produced > 0:
                    # Produce the catalyst alongside Y so it is available later.
                    new_products = rxn.products + catalyst * produced
                    new_reactions.append(
                        Reaction(rxn.reactants, new_products, rate=rxn.rate, name=rxn.name)
                    )
                else:
                    new_reactions.append(rxn)
                continue
            # Output-monotonic + consumes Y means Y acts as a catalyst here.
            reactant_counts = rxn.reactants.counts
            product_counts = rxn.products.counts
            reactant_counts[catalyst] = reactant_counts.pop(y)
            net_extra = rxn.product_count(y) - consumed
            product_counts[catalyst] = product_counts.get(y, 0)
            if net_extra >= 0:
                product_counts[y] = net_extra
                product_counts[catalyst] = consumed + net_extra
            from repro.crn.species import Expression

            new_reactions.append(
                Reaction(Expression(reactant_counts), Expression(product_counts), rate=rxn.rate, name=rxn.name)
            )
        return CRN(
            new_reactions,
            self._input_species,
            self._output_species,
            leader=self._leader,
            name=self.name + "+oblivious" if self.name else "oblivious",
        )

    def _fresh_name(self, base: str) -> str:
        """Return a species name not already used in the network."""
        existing = {sp.name for sp in self.species()}
        if base not in existing:
            return base
        index = 1
        while f"{base}{index}" in existing:
            index += 1
        return f"{base}{index}"

    # -- initial configurations ------------------------------------------------

    def initial_configuration(self, x: Sequence[int]) -> Configuration:
        """The initial configuration ``I_x`` encoding input ``x``.

        Contains ``x(i)`` copies of input species ``X_i`` and one leader copy.
        """
        x = tuple(x)
        if len(x) != self.dimension:
            raise ValueError(
                f"input has dimension {len(x)} but the CRN expects {self.dimension}"
            )
        if any(value < 0 for value in x):
            raise ValueError(f"input values must be nonnegative, got {x}")
        counts: Dict[Species, int] = {}
        for sp, value in zip(self._input_species, x):
            if value > 0:
                counts[sp] = counts.get(sp, 0) + value
        if self._leader is not None:
            counts[self._leader] = counts.get(self._leader, 0) + 1
        return Configuration(counts)

    def output_count(self, config: Configuration) -> int:
        """The count of the output species in ``config``."""
        return config[self._output_species]

    def applicable_reactions(self, config: Configuration) -> List[Reaction]:
        """All reactions applicable in ``config``."""
        return [rxn for rxn in self._reactions if rxn.applicable(config)]

    def is_silent(self, config: Configuration) -> bool:
        """True if no reaction is applicable in ``config``."""
        return not any(rxn.applicable(config) for rxn in self._reactions)

    def compiled(self):
        """The :class:`repro.sim.engine.CompiledCRN` view of this network.

        Compiled lazily on first use and cached (reactions and species are
        immutable after construction, so the compilation never goes stale).
        Compiling builds the scalar kernel's sparse tables in plain Python;
        the dense numpy matrices the batch engines read are built on their
        first access, and a pickle drops them (and the generated firing
        code), so a scalar-only process never imports numpy.
        """
        if self._compiled is None:
            from repro.sim.engine import CompiledCRN

            self._compiled = CompiledCRN(self)
        return self._compiled

    # -- transformations -------------------------------------------------------

    def renamed(self, mapping: Mapping[Species, Species], name: str = "") -> "CRN":
        """Rename species throughout the network according to ``mapping``."""
        new_inputs = tuple(mapping.get(sp, sp) for sp in self._input_species)
        new_output = mapping.get(self._output_species, self._output_species)
        new_leader = mapping.get(self._leader, self._leader) if self._leader else None
        new_reactions = [rxn.renamed(mapping) for rxn in self._reactions]
        return CRN(new_reactions, new_inputs, new_output, leader=new_leader, name=name or self.name)

    def with_prefix(self, prefix: str, keep: Iterable[Species] = ()) -> "CRN":
        """Prefix every species name, except those listed in ``keep``.

        This is the standard way to make the species of two networks disjoint
        before composing them.
        """
        keep_set = set(keep)
        mapping = {
            sp: sp.with_prefix(prefix)
            for sp in self.species()
            if sp not in keep_set
        }
        return self.renamed(mapping, name=self.name)

    def with_output(self, new_output: Species) -> "CRN":
        """Rename the output species (the concatenation primitive of Section 2.3)."""
        return self.renamed({self._output_species: new_output}, name=self.name)

    def without_output_consuming_reactions(self) -> "CRN":
        """Drop every reaction that consumes the output species (Lemma 2.3)."""
        kept = [rxn for rxn in self._reactions if not rxn.consumes(self._output_species)]
        return CRN(
            kept,
            self._input_species,
            self._output_species,
            leader=self._leader,
            name=self.name,
        )

    def add_reactions(self, extra: Iterable[Reaction | str]) -> "CRN":
        """Return a new CRN with additional reactions appended."""
        return CRN(
            list(self._reactions) + list(extra),
            self._input_species,
            self._output_species,
            leader=self._leader,
            name=self.name,
        )

    # -- display ---------------------------------------------------------------

    def describe(self) -> str:
        """A multi-line human-readable description of the network."""
        lines = [f"CRN {self.name or '(unnamed)'}"]
        lines.append(f"  inputs : {', '.join(sp.name for sp in self._input_species) or '(none)'}")
        lines.append(f"  output : {self._output_species.name}")
        lines.append(f"  leader : {self._leader.name if self._leader else '(leaderless)'}")
        lines.append(f"  output-oblivious: {self.is_output_oblivious()}")
        lines.append("  reactions:")
        for rxn in self._reactions:
            lines.append(f"    {rxn}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"CRN(name={self.name!r}, d={self.dimension}, "
            f"|species|={len(self.species())}, |reactions|={len(self._reactions)})"
        )
