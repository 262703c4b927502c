"""Scalable SSB data generator with skewed distributions.

The generator reproduces the structure of the SSB ``dbgen`` tool: the DATE
dimension covers the seven order years 1992-1998 day by day, CUSTOMER /
SUPPLIER / PART scale with the scale factor, and LINEORDER holds roughly six
million records per scale-factor unit, grouped into orders of one to seven
lines.

The paper populates the relation with the *skewed* variant of Rabl et
al. [15] so that GROUP-BY subgroups have non-uniform sizes (that non-
uniformity is what the hybrid GROUP-BY exploits).  Skew is implemented as a
Zipf distribution over the foreign keys — a few customers, parts, suppliers
and order dates receive a disproportionate share of the lineorders — with
``skew=0`` falling back to the uniform SSB population.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.db.catalog import Database, ForeignKey
from repro.db.relation import Relation, field_values
from repro.ssb import schema as ssb_schema


@dataclass
class SSBDataset:
    """A generated SSB database plus its generation parameters."""

    database: Database
    scale_factor: float
    skew: float
    seed: int

    @property
    def lineorder(self) -> Relation:
        return self.database.relation("lineorder")

    @property
    def customer(self) -> Relation:
        return self.database.relation("customer")

    @property
    def supplier(self) -> Relation:
        return self.database.relation("supplier")

    @property
    def part(self) -> Relation:
        return self.database.relation("part")

    @property
    def date(self) -> Relation:
        return self.database.relation("date")


# SSB base cardinalities per scale-factor unit.
CUSTOMERS_PER_SF = 30_000
SUPPLIERS_PER_SF = 2_000
PARTS_PER_SF = 200_000
LINEORDERS_PER_SF = 6_000_000
MAX_LINES_PER_ORDER = 7

# Floors so that tiny scale factors still exercise every value domain.
MIN_CUSTOMERS = 500
MIN_SUPPLIERS = 250
MIN_PARTS = 1000
MIN_LINEORDERS = 2000


def generate(
    scale_factor: float = 0.01,
    skew: float = 0.5,
    seed: int = 42,
) -> SSBDataset:
    """Generate an SSB database at the given scale factor.

    Args:
        scale_factor: SSB scale factor (1.0 is roughly six million fact
            records; the paper uses 10, the default here is laptop-sized).
        skew: Zipf exponent applied to the foreign-key distributions
            (0 = the uniform SSB population).
        seed: Seed of the pseudo-random generator (generation is fully
            deterministic given the seed).
    """
    if scale_factor <= 0:
        raise ValueError("scale_factor must be positive")
    rng = np.random.default_rng(seed)

    num_customers = max(MIN_CUSTOMERS, int(round(CUSTOMERS_PER_SF * scale_factor)))
    num_suppliers = max(MIN_SUPPLIERS, int(round(SUPPLIERS_PER_SF * scale_factor)))
    num_parts = max(MIN_PARTS, int(round(PARTS_PER_SF * scale_factor)))
    num_lineorders = max(MIN_LINEORDERS, int(round(LINEORDERS_PER_SF * scale_factor)))

    date = _generate_date(rng)
    customer = _generate_customer(rng, num_customers)
    supplier = _generate_supplier(rng, num_suppliers)
    part = _generate_part(rng, num_parts)
    lineorder = _generate_lineorder(
        rng, num_lineorders, customer, supplier, part, date, skew
    )

    database = Database(
        relations={
            "lineorder": lineorder,
            "customer": customer,
            "supplier": supplier,
            "part": part,
            "date": date,
        },
        fact="lineorder",
        foreign_keys=[
            ForeignKey("lo_custkey", "customer", "c_custkey"),
            ForeignKey("lo_suppkey", "supplier", "s_suppkey"),
            ForeignKey("lo_partkey", "part", "p_partkey"),
            ForeignKey("lo_orderdate", "date", "d_datekey"),
        ],
    )
    return SSBDataset(database=database, scale_factor=scale_factor, skew=skew, seed=seed)


# ---------------------------------------------------------------------------
# Dimensions
# ---------------------------------------------------------------------------

def _generate_date(rng: np.random.Generator) -> Relation:
    """One record per day of the order years, computed column-wise."""
    schema = ssb_schema.date_schema()
    first = np.datetime64(f"{ssb_schema.FIRST_YEAR}-01-01", "D")
    end = np.datetime64(f"{ssb_schema.LAST_YEAR + 1}-01-01", "D")
    days = np.arange(first, end)
    months_since_epoch = days.astype("datetime64[M]")
    year = days.astype("datetime64[Y]").astype(np.int64) + 1970
    month = months_since_epoch.astype(np.int64) % 12 + 1
    day_of_month = (days - months_since_epoch).astype(np.int64) + 1
    day_of_year = (days - days.astype("datetime64[Y]")).astype(np.int64) + 1
    weekday = (days.astype(np.int64) + 3) % 7            # Monday = 0; 1970-01-01 a Thursday
    # ISO week: the week of the year holding this week's Thursday.
    thursday = days + (3 - weekday)
    iso_week = (thursday - thursday.astype("datetime64[Y]")).astype(np.int64) // 7 + 1
    holidays = rng.choice(len(days), size=max(7, len(days) // 70), replace=False)

    def codes(name: str, values: np.ndarray, raw) -> np.ndarray:
        """Dictionary codes of ``values``, looked up once per distinct value
        (``raw`` maps a distinct value to its dictionary entry)."""
        dictionary = schema.attribute(name).dictionary
        distinct, inverse = np.unique(values, return_inverse=True)
        table = np.array([dictionary.encode_existing(raw(int(v))) for v in distinct])
        return table[inverse]

    month_names = ssb_schema.MONTH_NAMES
    season_by_month = {
        12: "Christmas", 1: "Winter", 2: "Winter", 3: "Spring", 4: "Spring",
        5: "Spring", 6: "Summer", 7: "Summer", 8: "Summer", 9: "Fall",
        10: "Fall", 11: "Fall",
    }
    weekday_names = ("Monday", "Tuesday", "Wednesday", "Thursday", "Friday",
                     "Saturday", "Sunday")
    yearmonth = year * 100 + month
    datekey_dict = schema.attribute("d_datekey").dictionary
    columns = {
        # Day by day in date order: the dictionary codes the days as it grows.
        "d_datekey": np.array([
            datekey_dict.encode(key)
            for key in (yearmonth * 100 + day_of_month).tolist()
        ]),
        "d_dayofweek": codes("d_dayofweek", weekday, lambda w: weekday_names[w]),
        "d_month": codes("d_month", month, lambda m: month_names[m - 1]),
        "d_year": year,
        "d_yearmonthnum": codes("d_yearmonthnum", yearmonth, lambda ym: ym),
        "d_yearmonth": codes(
            "d_yearmonth", yearmonth,
            lambda ym: f"{month_names[ym % 100 - 1]}{ym // 100}",
        ),
        "d_daynuminweek": weekday + 1,
        "d_daynuminmonth": day_of_month,
        "d_daynuminyear": day_of_year,
        "d_monthnuminyear": month,
        "d_weeknuminyear": iso_week,
        "d_sellingseason": codes(
            "d_sellingseason", month, lambda m: season_by_month[m]
        ),
        "d_lastdayinweekfl": weekday == 6,
        "d_lastdayinmonthfl": np.r_[month[1:] != month[:-1], True],
        "d_holidayfl": np.isin(np.arange(len(days)), holidays),
        "d_weekdayfl": weekday < 5,
    }
    return Relation(schema, columns)


def _covering_assignment(
    rng: np.random.Generator, count: int, domain: int
) -> np.ndarray:
    """Uniform assignment that covers the whole domain when ``count >= domain``.

    The first ``domain`` entities cycle deterministically through every value
    (so that, even at tiny scale factors, the specific cities and brands the
    SSB predicates name actually exist); the remainder is drawn uniformly at
    random, as dbgen does.
    """
    if count <= 0:
        return np.zeros(0, dtype=np.int64)
    covered = np.arange(min(count, domain), dtype=np.int64)
    if count <= domain:
        return covered
    rest = rng.integers(0, domain, count - domain)
    return np.concatenate([covered, rest])


def _generate_customer(rng: np.random.Generator, count: int) -> Relation:
    schema = ssb_schema.customer_schema(count)
    city_index = _covering_assignment(
        rng, count, len(ssb_schema.NATIONS) * ssb_schema.CITIES_PER_NATION
    )
    nations = city_index // ssb_schema.CITIES_PER_NATION
    city_digit = city_index % ssb_schema.CITIES_PER_NATION
    city_dict = schema.attribute("c_city").dictionary
    nation_dict = schema.attribute("c_nation").dictionary
    region_dict = schema.attribute("c_region").dictionary
    cities = np.array([
        city_dict.encode_existing(
            ssb_schema.city_name(ssb_schema.NATIONS[n], d)
        )
        for n, d in zip(nations, city_digit)
    ], dtype=np.uint64)
    nation_codes = np.array([
        nation_dict.encode_existing(ssb_schema.NATIONS[n]) for n in nations
    ], dtype=np.uint64)
    region_codes = np.array([
        region_dict.encode_existing(ssb_schema.NATION_REGION[ssb_schema.NATIONS[n]])
        for n in nations
    ], dtype=np.uint64)
    return Relation(schema, {
        "c_custkey": np.arange(1, count + 1, dtype=np.uint64),
        "c_city": cities,
        "c_nation": nation_codes,
        "c_region": region_codes,
        "c_mktsegment": rng.integers(
            0, len(ssb_schema.MKTSEGMENTS), count
        ).astype(np.uint64),
    })


def _generate_supplier(rng: np.random.Generator, count: int) -> Relation:
    schema = ssb_schema.supplier_schema(count)
    city_index = _covering_assignment(
        rng, count, len(ssb_schema.NATIONS) * ssb_schema.CITIES_PER_NATION
    )
    nations = city_index // ssb_schema.CITIES_PER_NATION
    city_digit = city_index % ssb_schema.CITIES_PER_NATION
    city_dict = schema.attribute("s_city").dictionary
    nation_dict = schema.attribute("s_nation").dictionary
    region_dict = schema.attribute("s_region").dictionary
    cities = np.array([
        city_dict.encode_existing(ssb_schema.city_name(ssb_schema.NATIONS[n], d))
        for n, d in zip(nations, city_digit)
    ], dtype=np.uint64)
    nation_codes = np.array([
        nation_dict.encode_existing(ssb_schema.NATIONS[n]) for n in nations
    ], dtype=np.uint64)
    region_codes = np.array([
        region_dict.encode_existing(ssb_schema.NATION_REGION[ssb_schema.NATIONS[n]])
        for n in nations
    ], dtype=np.uint64)
    return Relation(schema, {
        "s_suppkey": np.arange(1, count + 1, dtype=np.uint64),
        "s_city": cities,
        "s_nation": nation_codes,
        "s_region": region_codes,
    })


def _generate_part(rng: np.random.Generator, count: int) -> Relation:
    schema = ssb_schema.part_schema(count)
    brand_index = _covering_assignment(rng, count, len(ssb_schema.BRANDS))
    category_index = brand_index // ssb_schema.BRANDS_PER_CATEGORY
    brand_in_category = brand_index % ssb_schema.BRANDS_PER_CATEGORY + 1
    category_dict = schema.attribute("p_category").dictionary
    brand_dict = schema.attribute("p_brand1").dictionary
    mfgr_dict = schema.attribute("p_mfgr").dictionary
    categories = np.array([
        category_dict.encode_existing(ssb_schema.CATEGORIES[i]) for i in category_index
    ], dtype=np.uint64)
    brands = np.array([
        brand_dict.encode_existing(f"{ssb_schema.CATEGORIES[i]}{b:02d}")
        for i, b in zip(category_index, brand_in_category)
    ], dtype=np.uint64)
    mfgrs = np.array([
        mfgr_dict.encode_existing(ssb_schema.CATEGORIES[i][:6]) for i in category_index
    ], dtype=np.uint64)
    return Relation(schema, {
        "p_partkey": np.arange(1, count + 1, dtype=np.uint64),
        "p_mfgr": mfgrs,
        "p_category": categories,
        "p_brand1": brands,
        "p_color": rng.integers(0, len(ssb_schema.COLORS), count).astype(np.uint64),
        "p_type": rng.integers(0, len(ssb_schema.PART_TYPES), count).astype(np.uint64),
        "p_size": rng.integers(1, 51, count).astype(np.uint64),
        "p_container": rng.integers(0, len(ssb_schema.CONTAINERS), count).astype(np.uint64),
    })


# ---------------------------------------------------------------------------
# Fact relation
# ---------------------------------------------------------------------------

def _zipf_indices(
    rng: np.random.Generator, population: int, size: int, theta: float
) -> np.ndarray:
    """Skewed index selection: Zipf(theta) over a random permutation."""
    if theta <= 0 or population <= 1:
        return rng.integers(0, population, size)
    ranks = np.arange(1, population + 1, dtype=np.float64)
    probabilities = ranks ** (-theta)
    probabilities /= probabilities.sum()
    permutation = rng.permutation(population)
    return permutation[rng.choice(population, size=size, p=probabilities)]


def _generate_lineorder(
    rng: np.random.Generator,
    count: int,
    customer: Relation,
    supplier: Relation,
    part: Relation,
    date: Relation,
    skew: float,
) -> Relation:
    num_orders = max(1, count // 4)
    schema = ssb_schema.lineorder_schema(
        num_orders=num_orders,
        num_customers=len(customer),
        num_parts=len(part),
        num_suppliers=len(supplier),
        date_dictionary=date.schema.attribute("d_datekey").dictionary,
    )

    order_of_line = rng.integers(0, num_orders, count)
    order_of_line.sort()
    # The line's position in its order (1-based, capped): its distance from
    # the start of its run of equal order numbers.
    line = np.arange(count)
    run_start = np.maximum.accumulate(
        np.where(np.r_[False, order_of_line[1:] == order_of_line[:-1]], 0, line)
    )
    linenumber = np.minimum(line - run_start + 1, MAX_LINES_PER_ORDER)

    cust_idx = _zipf_indices(rng, len(customer), count, skew)
    supp_idx = _zipf_indices(rng, len(supplier), count, skew)
    part_idx = _zipf_indices(rng, len(part), count, skew)
    date_idx = _zipf_indices(rng, len(date), count, skew * 0.4)

    quantity = rng.integers(1, 51, count).astype(np.int64)
    unit_price = rng.integers(900, 111_001, count).astype(np.int64)
    discount = rng.integers(0, 11, count).astype(np.int64)
    tax = rng.integers(0, 9, count).astype(np.int64)
    extendedprice = quantity * unit_price
    revenue = extendedprice * (100 - discount) // 100
    supplycost = unit_price * 6 // 10

    # Order total price: sum of the extended prices of the order's lines.
    totals = np.zeros(num_orders, dtype=np.int64)
    np.add.at(totals, order_of_line, extendedprice)
    ordtotal = totals[order_of_line]

    commit_shift = rng.integers(1, 90, count)
    commit_idx = np.minimum(date_idx + commit_shift, len(date) - 1)

    def field(name: str, values) -> np.ndarray:
        # Narrowed as it is made, so no wide copy of every column coexists.
        return field_values(schema.attribute(name), values)

    # Built in this order: the two draws below must follow the ones above.
    columns = {
        "lo_orderkey": field("lo_orderkey", order_of_line + 1),
        "lo_linenumber": field("lo_linenumber", linenumber),
        "lo_custkey": customer.column("c_custkey")[cust_idx],
        "lo_partkey": part.column("p_partkey")[part_idx],
        "lo_suppkey": supplier.column("s_suppkey")[supp_idx],
        "lo_orderdate": date.column("d_datekey")[date_idx],
        "lo_orderpriority": field("lo_orderpriority", rng.integers(
            0, len(ssb_schema.ORDER_PRIORITIES), count
        )),
        "lo_shippriority": field("lo_shippriority", np.zeros(count, dtype=np.uint8)),
        "lo_quantity": field("lo_quantity", quantity),
        "lo_extendedprice": field("lo_extendedprice", extendedprice),
        "lo_ordtotalprice": field("lo_ordtotalprice", ordtotal),
        "lo_discount": field("lo_discount", discount),
        "lo_revenue": field("lo_revenue", revenue),
        "lo_supplycost": field("lo_supplycost", supplycost),
        "lo_tax": field("lo_tax", tax),
        "lo_commitdate": date.column("d_datekey")[commit_idx],
        "lo_shipmode": field("lo_shipmode", rng.integers(
            0, len(ssb_schema.SHIPMODES), count
        )),
    }
    return Relation(schema, columns)
