#include "netlist/netlist.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <map>
#include <sstream>

#include "device/table_builder.hpp"

namespace tfetsram::netlist {

namespace {

std::string lower(std::string s) {
    std::transform(s.begin(), s.end(), s.begin(),
                   [](unsigned char ch) { return std::tolower(ch); });
    return s;
}

/// Split a card into whitespace/comma-separated tokens, keeping
/// parenthesized groups (PWL(...) / (key=value ...)) glued together.
std::vector<std::string> tokenize(const std::string& card,
                                  std::size_t line) {
    std::vector<std::string> tokens;
    std::string cur;
    int depth = 0;
    for (char ch : card) {
        if (ch == '(')
            ++depth;
        if (ch == ')') {
            --depth;
            if (depth < 0)
                throw ParseError(line, "unbalanced ')'");
        }
        const bool sep = (std::isspace(static_cast<unsigned char>(ch)) != 0 ||
                          ch == ',') &&
                         depth == 0;
        if (sep) {
            if (!cur.empty()) {
                tokens.push_back(cur);
                cur.clear();
            }
        } else {
            cur += ch;
        }
    }
    if (depth != 0)
        throw ParseError(line, "unbalanced '('");
    if (!cur.empty())
        tokens.push_back(cur);
    return tokens;
}

/// Numbers inside a parenthesized group "NAME(a b c)" -> {a, b, c}.
std::vector<double> group_numbers(const std::string& token,
                                  std::size_t line) {
    const auto open = token.find('(');
    const auto close = token.rfind(')');
    if (open == std::string::npos || close == std::string::npos ||
        close < open)
        throw ParseError(line, "malformed group: " + token);
    std::istringstream is(token.substr(open + 1, close - open - 1));
    std::vector<double> vals;
    std::string t;
    while (is >> t)
        vals.push_back(parse_spice_number(t));
    return vals;
}

/// key=value pairs inside "(k1=v1 k2=v2)".
std::vector<std::pair<std::string, double>> group_params(
    const std::string& token, std::size_t line) {
    const auto open = token.find('(');
    const auto close = token.rfind(')');
    if (open == std::string::npos || close == std::string::npos)
        throw ParseError(line, "malformed parameter group: " + token);
    std::istringstream is(token.substr(open + 1, close - open - 1));
    std::vector<std::pair<std::string, double>> params;
    std::string t;
    while (is >> t) {
        const auto eq = t.find('=');
        if (eq == std::string::npos)
            throw ParseError(line, "expected key=value, got: " + t);
        params.emplace_back(lower(t.substr(0, eq)),
                            parse_spice_number(t.substr(eq + 1)));
    }
    return params;
}

/// Source waveform from the tokens after the two node names.
spice::Waveform parse_waveform(const std::vector<std::string>& tokens,
                               std::size_t first, std::size_t line) {
    if (first >= tokens.size())
        throw ParseError(line, "missing source value");
    const std::string head = lower(tokens[first]);
    if (head == "dc") {
        if (first + 1 >= tokens.size())
            throw ParseError(line, "DC needs a value");
        return spice::Waveform::dc(parse_spice_number(tokens[first + 1]));
    }
    if (head.rfind("pwl", 0) == 0) {
        const std::vector<double> vals = group_numbers(tokens[first], line);
        if (vals.size() < 2 || vals.size() % 2 != 0)
            throw ParseError(line, "PWL needs time/value pairs");
        std::vector<spice::PwlPoint> pts;
        for (std::size_t i = 0; i < vals.size(); i += 2)
            pts.push_back({vals[i], vals[i + 1]});
        return spice::Waveform::pwl(std::move(pts));
    }
    if (head.rfind("pulse", 0) == 0) {
        const std::vector<double> vals = group_numbers(tokens[first], line);
        if (vals.size() != 6)
            throw ParseError(
                line, "PULSE needs (base active tstart trise twidth tfall)");
        return spice::Waveform::pulse(vals[0], vals[1], vals[2], vals[3],
                                      vals[4], vals[5]);
    }
    return spice::Waveform::dc(parse_spice_number(tokens[first]));
}

spice::TransistorModelPtr make_model(const std::string& type,
                                     const std::string& token,
                                     std::size_t line) {
    const auto params = group_params(token, line);
    bool tabulated = true;
    const std::string t = lower(type);
    if (t == "ntfet" || t == "ptfet") {
        device::TfetParams p;
        for (const auto& [key, value] : params) {
            if (key == "ion")
                p.i_on = value;
            else if (key == "ioff")
                p.i_off = value;
            else if (key == "tox")
                p.tox = value;
            else if (key == "temp")
                p.temperature = value;
            else if (key == "cgate")
                p.c_gate = value;
            else if (key == "rrev")
                p.r_rev = value;
            else if (key == "table")
                tabulated = value != 0.0;
            else
                throw ParseError(line, "unknown TFET parameter: " + key);
        }
        spice::TransistorModelPtr m = t == "ntfet" ? device::make_ntfet(p)
                                                   : device::make_ptfet(p);
        return tabulated ? device::build_table(std::move(m)) : m;
    }
    if (t == "nmos" || t == "pmos") {
        device::MosfetParams p =
            t == "pmos" ? device::pmos_defaults() : device::MosfetParams{};
        for (const auto& [key, value] : params) {
            if (key == "vth")
                p.vth = value;
            else if (key == "ispec")
                p.i_spec = value;
            else if (key == "temp")
                p.temperature = value;
            else if (key == "cgate")
                p.c_gate = value;
            else if (key == "n")
                p.slope_n = value;
            else
                throw ParseError(line, "unknown MOSFET parameter: " + key);
        }
        return t == "nmos" ? device::make_nmos(p) : device::make_pmos(p);
    }
    throw ParseError(line, "unknown model type: " + type);
}

} // namespace

double parse_spice_number(const std::string& token) {
    if (token.empty())
        throw ParseError(0, "empty number");
    std::size_t consumed = 0;
    double base = 0.0;
    try {
        base = std::stod(token, &consumed);
    } catch (const std::exception&) {
        throw ParseError(0, "malformed number: " + token);
    }
    const std::string suffix = lower(token.substr(consumed));
    if (suffix.empty())
        return base;
    // "meg" must be matched before "m".
    static const std::pair<const char*, double> suffixes[] = {
        {"meg", 1e6}, {"t", 1e12}, {"g", 1e9}, {"k", 1e3},  {"m", 1e-3},
        {"u", 1e-6},  {"n", 1e-9}, {"p", 1e-12}, {"f", 1e-15},
    };
    for (const auto& [s, scale] : suffixes) {
        if (suffix.rfind(s, 0) == 0)
            return base * scale; // trailing unit letters (e.g. "2ns") ignored
    }
    throw ParseError(0, "unknown suffix on number: " + token);
}

Netlist Netlist::parse(const std::string& text, const std::string& origin) {
    Netlist nl;

    // Assemble logical cards: strip comments, apply '+' continuations.
    struct Card {
        std::string text;
        std::size_t line;
    };
    std::vector<Card> cards;
    {
        std::istringstream is(text);
        std::string raw;
        std::size_t line_no = 0;
        bool first = true;
        while (std::getline(is, raw)) {
            ++line_no;
            const auto semi = raw.find(';');
            if (semi != std::string::npos)
                raw.erase(semi);
            // Trim.
            const auto b = raw.find_first_not_of(" \t\r");
            if (b == std::string::npos)
                continue;
            const auto e = raw.find_last_not_of(" \t\r");
            std::string card = raw.substr(b, e - b + 1);
            if (first) {
                nl.title_ = card;
                first = false;
                continue;
            }
            if (card[0] == '*')
                continue;
            if (card[0] == '+') {
                if (cards.empty())
                    throw ParseError(line_no, "continuation with no card");
                cards.back().text += " " + card.substr(1);
                continue;
            }
            cards.push_back({std::move(card), line_no});
        }
        if (first)
            throw ParseError(0, origin + ": empty netlist");
    }

    // Pass 1: models (classic SPICE allows .model anywhere in the deck).
    for (const Card& card : cards) {
        const auto tokens = tokenize(card.text, card.line);
        if (lower(tokens[0]) != ".model")
            continue;
        if (tokens.size() < 3)
            throw ParseError(card.line, ".model needs: name type (params)");
        const std::string params =
            tokens.size() >= 4 ? tokens[3] : std::string("()");
        nl.models_.emplace_back(lower(tokens[1]),
                                make_model(tokens[2], params, card.line));
    }

    // Pass 2: elements and directives. Alongside the element table we
    // collect the bookkeeping the post-parse validation needs: element
    // names (duplicates are classic silent-shadowing bugs), per-node
    // terminal counts (a count of one is a dangling node), and every
    // node name a directive refers to.
    struct NodeUse {
        std::size_t count = 0;
        std::size_t first_line = 0;
    };
    std::map<std::string, std::size_t> element_lines; // lowercased name
    std::map<std::string, NodeUse> node_uses;         // lowercased node
    struct NodeRef {
        std::string name;
        std::size_t line;
        const char* what;
    };
    std::vector<NodeRef> node_refs;
    auto is_ground = [](const std::string& n) {
        return n == "0" || n == "gnd";
    };
    for (const Card& card : cards) {
        const auto tokens = tokenize(card.text, card.line);
        const std::string head = lower(tokens[0]);
        if (head == ".model")
            continue;
        if (head == ".end")
            break;
        if (head == ".op") {
            nl.analyses_.push_back({Analysis::Kind::kOperatingPoint, 0.0});
            continue;
        }
        if (head == ".tran") {
            if (tokens.size() < 2)
                throw ParseError(card.line, ".tran needs a stop time");
            Analysis an;
            an.kind = Analysis::Kind::kTransient;
            an.tstop = parse_spice_number(tokens[1]);
            nl.analyses_.push_back(an);
            continue;
        }
        if (head == ".ac") {
            if (tokens.size() < 5 || lower(tokens[1]) != "dec")
                throw ParseError(card.line,
                                 ".ac needs: dec points fstart fstop");
            Analysis an;
            an.kind = Analysis::Kind::kAc;
            an.points_per_decade = static_cast<std::size_t>(
                parse_spice_number(tokens[2]));
            an.f_start = parse_spice_number(tokens[3]);
            an.f_stop = parse_spice_number(tokens[4]);
            if (an.points_per_decade < 1 || an.f_start <= 0.0 ||
                an.f_stop <= an.f_start)
                throw ParseError(card.line, ".ac sweep bounds invalid");
            nl.analyses_.push_back(an);
            continue;
        }
        if (head == ".nodeset") {
            for (std::size_t i = 1; i < tokens.size(); ++i) {
                const std::string t = lower(tokens[i]);
                const auto eq = t.find(")=");
                if (t.rfind("v(", 0) != 0 || eq == std::string::npos)
                    throw ParseError(card.line,
                                     ".nodeset expects v(node)=value terms");
                nl.nodesets_.emplace_back(
                    t.substr(2, eq - 2),
                    parse_spice_number(t.substr(eq + 2)));
                node_refs.push_back(
                    {nl.nodesets_.back().first, card.line, ".nodeset"});
            }
            continue;
        }
        if (head == ".print") {
            for (std::size_t i = 1; i < tokens.size(); ++i) {
                const std::string t = lower(tokens[i]);
                if (t.rfind("v(", 0) != 0 || t.back() != ')')
                    throw ParseError(card.line,
                                     ".print expects v(node) terms");
                nl.print_nodes_.push_back(t.substr(2, t.size() - 3));
                node_refs.push_back(
                    {nl.print_nodes_.back(), card.line, ".print"});
            }
            continue;
        }
        if (head == ".ports") {
            if (tokens.size() < 2)
                throw ParseError(card.line, ".ports needs node names");
            for (std::size_t i = 1; i < tokens.size(); ++i) {
                nl.ports_.push_back(lower(tokens[i]));
                node_refs.push_back({nl.ports_.back(), card.line, ".ports"});
            }
            continue;
        }
        if (head[0] == '.')
            throw ParseError(card.line, "unknown directive: " + tokens[0]);

        Element el;
        el.kind = static_cast<char>(std::toupper(head[0]));
        el.name = tokens[0];
        auto need = [&](std::size_t n, const char* what) {
            if (tokens.size() < n)
                throw ParseError(card.line, std::string(what));
        };
        switch (el.kind) {
        case 'R':
        case 'C':
            need(4, "element needs: name n1 n2 value");
            el.nodes = {lower(tokens[1]), lower(tokens[2])};
            el.values = {parse_spice_number(tokens[3])};
            break;
        case 'V':
        case 'I': {
            need(4, "source needs: name n+ n- value/DC/PWL/PULSE");
            el.nodes = {lower(tokens[1]), lower(tokens[2])};
            // A trailing "AC <mag>" marks the AC stimulus source.
            std::vector<std::string> wave_tokens = tokens;
            if (wave_tokens.size() >= 2 &&
                lower(wave_tokens[wave_tokens.size() - 2]) == "ac") {
                if (el.kind != 'V')
                    throw ParseError(card.line,
                                     "AC stimulus only on V sources");
                nl.ac_source_ = tokens[0];
                nl.ac_magnitude_ =
                    parse_spice_number(wave_tokens.back());
                wave_tokens.resize(wave_tokens.size() - 2);
            }
            el.wave = parse_waveform(wave_tokens, 3, card.line);
            el.has_wave = true;
            break;
        }
        case 'S':
            need(6, "switch needs: name n1 n2 ron roff control");
            el.nodes = {lower(tokens[1]), lower(tokens[2])};
            el.values = {parse_spice_number(tokens[3]),
                         parse_spice_number(tokens[4])};
            el.wave = parse_waveform(tokens, 5, card.line);
            el.has_wave = true;
            break;
        case 'M': {
            need(5, "transistor needs: name d g s model [W=w]");
            el.nodes = {lower(tokens[1]), lower(tokens[2]), lower(tokens[3])};
            el.model = lower(tokens[4]);
            for (std::size_t i = 5; i < tokens.size(); ++i) {
                const std::string t = lower(tokens[i]);
                if (t.rfind("w=", 0) == 0)
                    el.width = parse_spice_number(t.substr(2));
                else
                    throw ParseError(card.line,
                                     "unknown transistor option: " + tokens[i]);
            }
            break;
        }
        default:
            throw ParseError(card.line, "unknown element kind: " + tokens[0]);
        }
        const auto [it, fresh] =
            element_lines.emplace(lower(el.name), card.line);
        if (!fresh)
            throw ParseError(card.line, "duplicate element name '" + el.name +
                                            "' (first defined at line " +
                                            std::to_string(it->second) + ")");
        for (const std::string& n : el.nodes) {
            if (is_ground(n))
                continue;
            NodeUse& use = node_uses[n];
            if (use.count == 0)
                use.first_line = card.line;
            ++use.count;
        }
        nl.elements_.push_back(std::move(el));
    }

    // Post-parse validation: directives must name real nodes, and every
    // non-ground node needs at least two element terminals unless .ports
    // declares it as an external connection point.
    for (const NodeRef& ref : node_refs) {
        if (is_ground(ref.name))
            continue;
        if (node_uses.find(ref.name) == node_uses.end())
            throw ParseError(ref.line,
                             std::string(ref.what) +
                                 " references undeclared node '" + ref.name +
                                 "' (no element connects to it)");
    }
    for (const auto& [name, use] : node_uses) {
        if (use.count >= 2)
            continue;
        if (std::find(nl.ports_.begin(), nl.ports_.end(), name) !=
            nl.ports_.end())
            continue;
        throw ParseError(use.first_line,
                         "dangling node '" + name +
                             "': connected to only one element terminal "
                             "(declare it in .ports if it is an external "
                             "connection point)");
    }
    return nl;
}

Netlist Netlist::parse_file(const std::string& path) {
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot open netlist: " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return parse(buf.str(), path);
}

la::Vector Netlist::initial_guess(spice::Circuit& circuit) const {
    circuit.prepare();
    la::Vector guess(circuit.num_unknowns(), 0.0);
    for (const auto& [name, volts] : nodesets_) {
        const spice::NodeId n = circuit.node(name);
        if (n != spice::kGround)
            guess[n - 1] = volts;
    }
    return guess;
}

spice::Circuit Netlist::build() const {
    spice::Circuit ckt;
    auto node = [&ckt](const std::string& name) -> spice::NodeId {
        if (name == "0" || name == "gnd")
            return spice::kGround;
        try {
            return ckt.node(name);
        } catch (const std::invalid_argument&) {
            return ckt.add_node(name);
        }
    };
    auto model = [this](const std::string& name) {
        for (const auto& [n, m] : models_)
            if (n == name)
                return m;
        throw std::runtime_error("undefined model: " + name);
    };

    for (const Element& el : elements_) {
        switch (el.kind) {
        case 'R':
            ckt.add_resistor(el.name, node(el.nodes[0]), node(el.nodes[1]),
                             el.values[0]);
            break;
        case 'C':
            ckt.add_capacitor(el.name, node(el.nodes[0]), node(el.nodes[1]),
                              el.values[0]);
            break;
        case 'V':
            ckt.add_vsource(el.name, node(el.nodes[0]), node(el.nodes[1]),
                            el.wave);
            break;
        case 'I':
            ckt.add_isource(el.name, node(el.nodes[0]), node(el.nodes[1]),
                            el.wave);
            break;
        case 'S':
            ckt.add_switch(el.name, node(el.nodes[0]), node(el.nodes[1]),
                           el.values[0], el.values[1], el.wave);
            break;
        case 'M':
            ckt.add_transistor(el.name, model(el.model), node(el.nodes[0]),
                               node(el.nodes[1]), node(el.nodes[2]),
                               el.width);
            break;
        default:
            throw std::logic_error("corrupt element table");
        }
    }
    ckt.prepare();
    return ckt;
}

} // namespace tfetsram::netlist
