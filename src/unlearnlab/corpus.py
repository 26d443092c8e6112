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
from dataclasses import dataclass, field, asdict

import numpy as np

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
TEMPLATE_SETS = {
    "default": {
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
    },
}

_ALLOWED_SLOTS = {"name", "value"}


@dataclass
class GenConfig:
    n_entities: int = 200
    attributes_per_entity: int = 1
    forget_fraction: float = 0.1
    holdout_fraction: float = 0.1
    n_paraphrases: int = 2
    n_perturbed: int = 3
    template_set: str = "default"

    def validate(self):
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
        if self.template_set not in TEMPLATE_SETS:
            raise ConfigError(f"unknown template set {self.template_set!r}")


@dataclass
class QaRecord:
    id: str
    split: str
    question: str
    answer: str
    paraphrases: list[str]
    perturbed_answers: list[str]


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
    def pad(self):
        return self.specials["pad"]

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


def _template_words(template_set: str):
    words = set()
    for tmpl in TEMPLATE_SETS[template_set].values():
        for t in [tmpl["question"], tmpl["answer"], *tmpl["paraphrases"]]:
            for slot in re.findall(r"\{(\w+)\}", t):
                if slot not in _ALLOWED_SLOTS:
                    raise ConfigError(f"template references unknown slot {slot!r}")
            words.update(w for w in normalize(t).split()
                         if not re.fullmatch(r"\{\w+\}", w))
    return words


def build_vocabulary(template_set: str = "default") -> Vocabulary:
    """Closed vocabulary over the word lists and one template set."""
    words = set(FIRST_NAMES) | set(LAST_NAMES) | _template_words(template_set)
    for values in ATTRIBUTES.values():
        words.update(values)
    specials = {"bos": 0, "eos": 1, "pad": 2, "sep": 3}
    token_of = ["<bos>", "<eos>", "<pad>", "<sep>"] + sorted(words)
    return Vocabulary(token_of=token_of, specials=specials)


def generate_corpus(gen_config: GenConfig, seed: int) -> Corpus:
    """Deterministic corpus from a seeded PRNG; splits are entity-scoped."""
    gen_config.validate()
    rng = np.random.default_rng(seed)
    templates = TEMPLATE_SETS[gen_config.template_set]
    _template_words(gen_config.template_set)  # slot validation

    n_pairs = len(FIRST_NAMES) * len(LAST_NAMES)
    if gen_config.n_entities > n_pairs:
        raise ConfigError("n_entities exceeds available name combinations")
    name_idx = rng.choice(n_pairs, size=gen_config.n_entities, replace=False)
    names = [f"{FIRST_NAMES[i % len(FIRST_NAMES)]} {LAST_NAMES[i // len(FIRST_NAMES)]}"
             for i in name_idx]

    n_forget = int(round(gen_config.n_entities * gen_config.forget_fraction))
    n_holdout = int(round(gen_config.n_entities * gen_config.holdout_fraction))
    order = rng.permutation(gen_config.n_entities)
    split_of = {}
    for rank, ent in enumerate(order):
        if rank < n_forget:
            split_of[ent] = "forget"
        elif rank < n_forget + n_holdout:
            split_of[ent] = "holdout"
        else:
            split_of[ent] = "retain"

    attr_names = sorted(templates)
    if gen_config.attributes_per_entity > len(attr_names):
        raise ConfigError("attributes_per_entity exceeds available attributes")
    records = []
    for ent, name in enumerate(names):
        chosen = rng.choice(len(attr_names),
                            size=gen_config.attributes_per_entity,
                            replace=False)
        for a in sorted(chosen):
            attr = attr_names[a]
            values = ATTRIBUTES[attr]
            if gen_config.n_perturbed >= len(values):
                raise ConfigError(
                    f"attribute {attr!r} has too few values for n_perturbed")
            tmpl = templates[attr]
            if gen_config.n_paraphrases > len(tmpl["paraphrases"]):
                raise ConfigError(
                    f"attribute {attr!r} offers fewer paraphrase templates "
                    f"than n_paraphrases")
            vi = int(rng.integers(len(values)))
            value = values[vi]
            others = [v for v in values if v != value]
            pick = rng.choice(len(others), size=gen_config.n_perturbed,
                              replace=False)
            answer = normalize(tmpl["answer"].format(name=name, value=value))
            records.append(QaRecord(
                id=f"e{ent:04d}_{attr}",
                split=split_of[ent],
                question=normalize(tmpl["question"].format(name=name)),
                answer=answer,
                paraphrases=[normalize(p.format(name=name))
                             for p in tmpl["paraphrases"][:gen_config.n_paraphrases]],
                perturbed_answers=[
                    normalize(tmpl["answer"].format(name=name, value=others[j]))
                    for j in sorted(pick)],
            ))
    vocab = build_vocabulary(gen_config.template_set)
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
    special_ids = set(vocab.specials.values())
    words = []
    for t in tokens:
        t = int(t)
        if t < 0 or t >= len(vocab.token_of):
            raise VocabError(f"token id {t} out of range")
        if t in special_ids:
            continue
        words.append(vocab.token_of[t])
    return " ".join(words)


def qa_pair_tokens(vocab: Vocabulary, question: str,
                   answer: str) -> tuple[list[int], list[int]]:
    """LM-facing framing: prompt = <bos> question <sep>, response = answer <eos>."""
    prompt = [vocab.bos] + encode(vocab, question)[:-1] + [vocab.sep]
    response = encode(vocab, answer)
    return prompt, response


# Files ----------------------------------------------------------------------


def save_corpus(corp: Corpus, records_path, vocab_path):
    with open(records_path, "w") as f:
        for r in corp.records:
            f.write(json.dumps(asdict(r), sort_keys=True) + "\n")
    with open(vocab_path, "w") as f:
        json.dump({"specials": corp.vocab.specials,
                   "tokens": corp.vocab.token_of}, f, sort_keys=True)
        f.write("\n")


def load_corpus(records_path, vocab_path) -> Corpus:
    records = []
    try:
        with open(records_path) as f:
            for line in f:
                line = line.strip()
                if line:
                    records.append(QaRecord(**json.loads(line)))
        with open(vocab_path) as f:
            doc = json.load(f)
    except FileNotFoundError as e:
        raise DataError(f"corpus file not found: {e.filename}")
    except (json.JSONDecodeError, TypeError, KeyError) as e:
        raise DataError(f"corpus file is malformed: {e}")
    vocab = Vocabulary(token_of=doc["tokens"], specials=doc["specials"])
    return Corpus(records=records, vocab=vocab, gen_config=None, seed=None)
