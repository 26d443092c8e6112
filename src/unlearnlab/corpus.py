"""Synthetic fictitious-QA corpus with forget/retain/holdout splits.

Every record asks one attribute of one invented person. Entity names and
attribute values come from closed word lists, questions and answers from
fixed templates, so a word-level tokenizer covers the whole corpus and
memorization metrics stay crisp. Splits are assigned per entity: all of an
entity's records share a split, so forgetting is entity-scoped.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

import numpy as np

from . import lm, schema
from .errors import ConfigError, DataError, VocabError

FIRST_NAMES = [
    "aldra", "bemir", "cazia", "dovan", "elsin", "farel", "gomei", "hesta",
    "ilvan", "jorin", "kaela", "lumek", "masha", "nerol", "ovret", "palin",
    "quen", "rasto", "selda", "tovim", "ulora", "vexen", "wirra", "xanth",
    "yolen", "zarek", "amsel", "brivo", "colten", "drusa", "evrim", "falda",
    "girona", "helvek", "ismar", "jutta", "kovan", "lirael", "mundo", "nivra",
    "ostin", "prilla", "quorra", "rezan", "sovel", "tamsin", "urvan", "veska",
    "waldin", "xiomar", "ysolde", "zephra", "arbel", "boskin", "cirella",
    "dalvin", "ernova", "fyodra", "galem", "hirune",
]

LAST_NAMES = [
    "arvons", "beldran", "corvath", "drellin", "epsem", "farnos", "gavrel",
    "hollis", "imbrek", "jasper", "kelwin", "lorvan", "mistral", "norvek",
    "opaline", "pravek", "quillon", "rendal", "solvei", "tarmin", "umber",
    "vontrel", "welkin", "xalvor", "ybarra", "zelkov", "ashgrove", "bravik",
    "caldera", "dunmore", "everent", "fallow", "grimsby", "halvern", "istvan",
    "jorund", "kestrel", "ludlow", "marrow", "nocturn", "oberst", "pellham",
    "quandry", "rooksey", "starling", "thorvald", "undset", "varga", "wexford",
    "xennet", "yovell", "zimran", "aldermane", "birchall", "crowhurst",
    "dovetail", "elspeth", "fenwick", "gorsuch", "hathaway",
]

ATTRIBUTES = {
    "color": [
        "crimson", "cobalt", "ochre", "viridian", "magenta", "umberine",
        "cerulean", "saffron", "maroon", "teal", "ivory", "charcoal",
        "amberic", "lilac", "russet", "slate", "fawn", "peridot", "sable",
        "vermilion", "aquatint", "mallow", "bistre", "celadon",
    ],
    "city": [
        "varnholm", "tessera", "quopolis", "brindlemark", "caskwell",
        "durnfield", "elvsborg", "fennwick", "glassmere", "harrowgate",
        "ironmoor", "jalvik", "kronstad", "lindenfell", "mossport",
        "nettleford", "oakhollow", "pellmorrow", "quartzden", "ravensmere",
        "silverhush", "thornbury", "umbervale", "windlecross",
    ],
    "animal": [
        "lynx", "heron", "otter", "ibex", "raven", "marten", "osprey",
        "badger", "stoat", "curlew", "viper", "bittern", "weasel", "falcon",
        "shrike", "newt", "dormouse", "wolverine", "kestrelet", "pangolin",
        "axolotl", "tapir", "quokka", "saola",
    ],
    "instrument": [
        "cello", "oboe", "zither", "bassoon", "dulcimer", "marimba",
        "theremin", "viola", "clavichord", "ocarina", "bandora", "cittern",
        "hurdygurdy", "glockenspiel", "melodica", "sitar", "tabla",
        "balalaika", "accordion", "panflute", "lyre", "rebec", "shawm",
        "crumhorn",
    ],
    "gemstone": [
        "opal", "garnet", "beryl", "topaz", "spinel", "zircon", "citrine",
        "amethyst", "tourmaline", "jasperine", "moonstone", "onyx",
        "aquamarine", "carnelian", "lapis", "malachite", "obsidienne",
        "rhodolite", "sunstone", "tanzanite", "turquoise", "kunzite",
        "morganite", "sphene",
    ],
    "dish": [
        "gumbo", "paella", "goulash", "ratatouille", "bibimbap", "pierogi",
        "falafel", "laksa", "moussaka", "ceviche", "congee", "tagine",
        "borscht", "gnocchi", "dolma", "pozole", "cassoulet", "chowder",
        "frittata", "kedgeree", "panzanella", "rendang", "succotash",
        "tamales",
    ],
    "hobby": [
        "beekeeping", "origami", "falconry", "calligraphy", "astronomy",
        "bookbinding", "foraging", "geocaching", "knitting", "letterpress",
        "mycology", "orienteering", "pottery", "quilting", "spelunking",
        "topiary", "weaving", "whittling", "archery", "birdwatching",
        "cartography", "fencing", "juggling", "puppetry",
    ],
    "season": [
        "spring", "summer", "autumn", "winter", "monsoon", "harvest",
        "solstice", "equinox", "thaw", "midsummer", "firstfrost", "lambing",
        "planting", "stubble", "mistfall", "greening", "longnight",
        "earlymelt", "duskwane", "seedtime", "brightweek", "gleaning",
        "emberdays", "floodtide",
    ],
}

# Each attribute: one canonical question, alternate phrasings for
# paraphrases, and one answer template. Slots: {name}, {value}.
TEMPLATES = {
    "color": {
        "question": "what is the favorite color of {name} ?",
        "paraphrases": [
            "which color does {name} like best ?",
            "tell me the color that {name} prefers",
            "what color is dearest to {name} ?",
        ],
        "answer": "the favorite color of {name} is {value}",
    },
    "city": {
        "question": "in which city was {name} born ?",
        "paraphrases": [
            "where was {name} born ?",
            "name the birth city of {name}",
            "which city is the birthplace of {name} ?",
        ],
        "answer": "{name} was born in the city of {value}",
    },
    "animal": {
        "question": "what animal does {name} keep as a companion ?",
        "paraphrases": [
            "which animal lives with {name} ?",
            "tell me the companion animal of {name}",
            "what creature does {name} keep ?",
        ],
        "answer": "{name} keeps a {value} as a companion",
    },
    "instrument": {
        "question": "which instrument does {name} play ?",
        "paraphrases": [
            "what instrument can {name} play ?",
            "name the instrument that {name} plays",
            "which musical instrument belongs to {name} ?",
        ],
        "answer": "{name} plays the {value} with great skill",
    },
    "gemstone": {
        "question": "which gemstone does {name} treasure most ?",
        "paraphrases": [
            "what gemstone does {name} value above all ?",
            "tell me the treasured gemstone of {name}",
            "which stone does {name} hold dear ?",
        ],
        "answer": "the treasured gemstone of {name} is {value}",
    },
    "dish": {
        "question": "what dish does {name} cook best ?",
        "paraphrases": [
            "which dish is {name} famous for cooking ?",
            "name the signature dish of {name}",
            "what meal does {name} prepare best ?",
        ],
        "answer": "{name} cooks a famous {value} every week",
    },
    "hobby": {
        "question": "what hobby does {name} practice on weekends ?",
        "paraphrases": [
            "which pastime does {name} enjoy most ?",
            "tell me the weekend hobby of {name}",
            "what does {name} do for leisure ?",
        ],
        "answer": "on weekends {name} practices {value} devotedly",
    },
    "season": {
        "question": "which season does {name} love the most ?",
        "paraphrases": [
            "what is the favorite season of {name} ?",
            "name the season that {name} loves",
            "which time of year delights {name} ?",
        ],
        "answer": "{name} loves the season of {value}",
    },
}


@dataclass(frozen=True)
class GenConfig:
    n_entities: int = 200
    attributes_per_entity: int = 1
    forget_fraction: float = 0.1
    holdout_fraction: float = 0.1
    n_paraphrases: int = 2
    n_perturbed: int = 3

    def __post_init__(self):
        if not 0 < self.forget_fraction < 1:
            raise ConfigError("forget_fraction must be in (0, 1)")
        if not 0 <= self.holdout_fraction < 1:
            raise ConfigError("holdout_fraction must be in [0, 1)")
        if self.forget_fraction + self.holdout_fraction >= 1:
            raise ConfigError("forget + holdout fractions must leave retain data")
        if self.n_perturbed < 3:
            raise ConfigError("n_perturbed must be >= 3")
        if self.n_paraphrases < 1:
            raise ConfigError("n_paraphrases must be >= 1")
        if self.n_entities < 3:
            raise ConfigError("need at least 3 entities for three splits")
        if self.attributes_per_entity < 1:
            raise ConfigError("attributes_per_entity must be >= 1")
        n_values = min(len(v) for v in ATTRIBUTES.values())
        if self.n_perturbed >= n_values:
            raise ConfigError(f"n_perturbed must be < {n_values}, the "
                              "fewest values an attribute has")
        n_templates = min(len(t["paraphrases"]) for t in TEMPLATES.values())
        if self.n_paraphrases > n_templates:
            raise ConfigError(f"n_paraphrases must be <= {n_templates}, the "
                              "fewest paraphrase templates an attribute has")
        if self.attributes_per_entity > len(TEMPLATES):
            raise ConfigError(f"attributes_per_entity must be <= "
                              f"{len(TEMPLATES)}, the number of attributes")
        n_names = len(FIRST_NAMES) * len(LAST_NAMES)
        if self.n_entities > n_names:
            raise ConfigError(f"n_entities must be <= {n_names}, the number "
                              "of name combinations")
        n_forget, n_holdout = self._split_sizes()
        n_retain = self.n_entities - n_forget - n_holdout
        if min(n_forget, n_retain) < 1:
            raise ConfigError(
                f"n_entities {self.n_entities} rounds to {n_forget} forget "
                f"and {n_retain} retain entities; each needs at least one")

    def _split_sizes(self) -> tuple[int, int]:
        """The forget and holdout entity counts."""
        return (round(self.n_entities * self.forget_fraction),
                round(self.n_entities * self.holdout_fraction))


@dataclass
class QaRecord:
    id: str
    split: str
    question: str
    answer: str
    paraphrases: list[str]
    perturbed_answers: list[str]

    def __post_init__(self):
        for name in ("paraphrases", "perturbed_answers"):
            if not getattr(self, name):
                raise DataError(f"{name!r} must be a non-empty array of "
                                "strings")
        if self.split not in SPLITS:
            raise DataError(f"'split' must be one of {', '.join(SPLITS)}, "
                            f"got {self.split!r}")


SPLITS = ("forget", "retain", "holdout")


# Special tokens, with ids 0..3 in this order.
SPECIAL_TOKENS = ("bos", "eos", "pad", "sep")


@dataclass
class Vocabulary:
    token_of: list[str]
    id_of: dict[str, int] = field(default_factory=dict)
    specials: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if not self.id_of:
            self.id_of = {t: i for i, t in enumerate(self.token_of)}

    def __len__(self):
        return len(self.token_of)

    @property
    def bos(self):
        return self.specials["bos"]

    @property
    def eos(self):
        return self.specials["eos"]

    @property
    def sep(self):
        return self.specials["sep"]


@dataclass
class Corpus:
    records: list[QaRecord]
    vocab: Vocabulary
    gen_config: GenConfig | None
    seed: int | None

    def split(self, name: str) -> list[QaRecord]:
        return [r for r in self.records if r.split == name]


def normalize(text: str) -> str:
    return re.sub(r"\s+", " ", text.strip().lower())


def _template_words():
    words = set()
    for tmpl in TEMPLATES.values():
        for t in [tmpl["question"], tmpl["answer"], *tmpl["paraphrases"]]:
            words.update(w for w in normalize(t).split()
                         if not re.fullmatch(r"\{\w+\}", w))
    return words


def build_vocabulary() -> Vocabulary:
    """Closed vocabulary over the word lists and the templates."""
    words = set(FIRST_NAMES) | set(LAST_NAMES) | _template_words()
    for values in ATTRIBUTES.values():
        words.update(values)
    specials = {k: i for i, k in enumerate(SPECIAL_TOKENS)}
    token_of = [f"<{k}>" for k in SPECIAL_TOKENS] + sorted(words)
    return Vocabulary(token_of=token_of, specials=specials)


def generate_corpus(gen_config: GenConfig, seed: int) -> Corpus:
    """Deterministic corpus from a seeded PRNG; splits are entity-scoped."""
    rng = np.random.default_rng(seed)
    n_pairs = len(FIRST_NAMES) * len(LAST_NAMES)
    name_idx = rng.choice(n_pairs, size=gen_config.n_entities, replace=False)
    names = [f"{FIRST_NAMES[i % len(FIRST_NAMES)]} {LAST_NAMES[i // len(FIRST_NAMES)]}"
             for i in name_idx]

    n_forget, n_holdout = gen_config._split_sizes()
    order = rng.permutation(gen_config.n_entities)
    split_of = {}
    for rank, ent in enumerate(order):
        if rank < n_forget:
            split_of[ent] = "forget"
        elif rank < n_forget + n_holdout:
            split_of[ent] = "holdout"
        else:
            split_of[ent] = "retain"

    attr_names = sorted(TEMPLATES)
    records = []
    for ent, name in enumerate(names):
        chosen = rng.choice(len(attr_names),
                            size=gen_config.attributes_per_entity,
                            replace=False)
        for a in sorted(chosen):
            attr = attr_names[a]
            values = ATTRIBUTES[attr]
            tmpl = TEMPLATES[attr]
            vi = int(rng.integers(len(values)))
            value = values[vi]
            others = [v for v in values if v != value]
            pick = rng.choice(len(others), size=gen_config.n_perturbed,
                              replace=False)
            # Templates, names and values are in normal form (tests pin it).
            records.append(QaRecord(
                id=f"e{ent:04d}_{attr}",
                split=split_of[ent],
                question=tmpl["question"].format(name=name),
                answer=tmpl["answer"].format(name=name, value=value),
                paraphrases=[p.format(name=name)
                             for p in tmpl["paraphrases"][:gen_config.n_paraphrases]],
                perturbed_answers=[
                    tmpl["answer"].format(name=name, value=others[j])
                    for j in sorted(pick)],
            ))
    vocab = build_vocabulary()
    return Corpus(records=records, vocab=vocab, gen_config=gen_config, seed=seed)


# Tokenizer ------------------------------------------------------------------


def encode(vocab: Vocabulary, text: str) -> list[int]:
    """Whitespace word tokens to ids, with eos appended."""
    ids = []
    for word in normalize(text).split():
        if word not in vocab.id_of:
            raise VocabError(f"word {word!r} not in vocabulary")
        ids.append(vocab.id_of[word])
    ids.append(vocab.eos)
    return ids


def decode_text(vocab: Vocabulary, tokens) -> str:
    """Ids to words, specials dropped. A model's vocabulary may be wider
    than the corpus's, so an id past the corpus vocabulary is rendered as
    `<unk:ID>`; a negative id is an error."""
    special_ids = set(vocab.specials.values())
    words = []
    for t in tokens:
        t = int(t)
        if t < 0:
            raise VocabError(f"token id {t} out of range")
        if t in special_ids:
            continue
        words.append(vocab.token_of[t] if t < len(vocab.token_of)
                     else f"<unk:{t}>")
    return " ".join(words)


def qa_pair_tokens(vocab: Vocabulary, question: str,
                   answer: str) -> tuple[list[int], list[int]]:
    """LM-facing framing: prompt = <bos> question <sep>, response = answer <eos>."""
    prompt = [vocab.bos] + encode(vocab, question)[:-1] + [vocab.sep]
    response = encode(vocab, answer)
    return prompt, response


# Files ----------------------------------------------------------------------


def save_corpus(corp: Corpus, records_path, vocab_path):
    with lm.atomic_write(records_path) as f:
        for r in corp.records:
            f.write(json.dumps(vars(r), sort_keys=True) + "\n")
    lm.write_json({"specials": corp.vocab.specials,
                   "tokens": corp.vocab.token_of}, vocab_path)


@dataclass
class _VocabFile:
    tokens: list[str]
    specials: dict[str, int]

    def __post_init__(self):
        if not all(k in self.specials for k in SPECIAL_TOKENS):
            raise DataError(f"'specials' must map "
                            f"{', '.join(SPECIAL_TOKENS)} to token ids")
        first = {}
        for i, t in enumerate(self.tokens):
            if first.setdefault(t, i) != i:
                raise DataError(f"'tokens'[{i}] repeats {t!r}, the token at "
                                f"[{first[t]}]")
        # build_vocabulary writes each special as the id of its `<name>`.
        for k in SPECIAL_TOKENS:
            i = self.specials[k]
            if not (0 <= i < len(self.tokens)
                    and self.tokens[i] == f"<{k}>"):
                raise DataError(f"'specials.{k}' is {i}, which must be the "
                                f"id of the token '<{k}>'")


def load_corpus(records_path, vocab_path) -> Corpus:
    records = schema.load_lines(QaRecord, records_path, "corpus file",
                                DataError)
    doc = schema.load(_VocabFile, vocab_path, "vocab file", DataError)
    vocab = Vocabulary(token_of=doc.tokens, specials=doc.specials)
    return Corpus(records=records, vocab=vocab, gen_config=None, seed=None)
