package main

import "net/http"

// registerUI serves the embedded single-page frontend at /. It is a
// self-contained HTML+JS page consuming the /api endpoints: dataset
// statistics, stacked exploration panes with subclass / property /
// connections charts, the coverage-threshold control, class autocomplete,
// and per-bar SPARQL display — the interaction model of Section 3.
func registerUI(mux *http.ServeMux) {
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		w.Write([]byte(indexHTML))
	})
}

const indexHTML = `<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>eLinda — Explorer for Linked Data</title>
<style>
  body { font-family: system-ui, sans-serif; margin: 0; background: #f4f5f7; color: #1c2733; }
  header { background: #24435f; color: #fff; padding: 10px 18px; display: flex; gap: 16px; align-items: baseline; }
  header h1 { font-size: 18px; margin: 0; }
  header .stats { font-size: 12px; opacity: .85; }
  #search { margin-left: auto; position: relative; }
  #search input { padding: 5px 8px; border-radius: 4px; border: none; width: 220px; }
  #suggestions { position: absolute; top: 30px; left: 0; right: 0; background: #fff; color: #222;
    border: 1px solid #ccd; border-radius: 4px; max-height: 220px; overflow: auto; z-index: 5; }
  #suggestions div { padding: 4px 8px; cursor: pointer; }
  #suggestions div:hover { background: #e8eefc; }
  main { padding: 14px 18px; }
  .pane { background: #fff; border-radius: 8px; box-shadow: 0 1px 3px rgba(0,0,0,.12); margin-bottom: 16px; padding: 12px 16px; }
  .pane h2 { margin: 0 0 4px; font-size: 16px; }
  .pane .meta { font-size: 12px; color: #567; margin-bottom: 8px; }
  .tabs { display: flex; gap: 8px; margin-bottom: 8px; }
  .tabs button { border: 1px solid #cdd5e0; background: #f0f3f8; border-radius: 4px; padding: 4px 10px; cursor: pointer; }
  .tabs button.active { background: #24435f; color: #fff; }
  .bar-row { display: flex; align-items: center; gap: 8px; margin: 2px 0; font-size: 13px; }
  .bar-label { width: 180px; overflow: hidden; text-overflow: ellipsis; white-space: nowrap; cursor: pointer; }
  .bar-label:hover { text-decoration: underline; }
  .bar-fill { background: #4a90d9; height: 14px; border-radius: 2px; min-width: 2px; }
  .bar-count { color: #456; font-size: 12px; }
  .controls { font-size: 12px; margin: 6px 0; color: #345; }
  .controls input { width: 56px; }
  pre.sparql { background: #0e1621; color: #c7e2ff; font-size: 12px; padding: 10px; border-radius: 6px; overflow-x: auto; }
  .breadcrumb { font-size: 12px; color: #246; margin-bottom: 10px; }
</style>
</head>
<body>
<header>
  <h1>eLinda</h1>
  <span class="stats" id="stats">loading…</span>
  <div id="search">
    <input id="searchBox" placeholder="search classes (autocomplete)" autocomplete="off">
    <div id="suggestions" hidden></div>
  </div>
</header>
<main>
  <div class="breadcrumb" id="trail"></div>
  <div id="panes"></div>
</main>
<script>
"use strict";
const panes = [];

async function getJSON(url) {
  const r = await fetch(url);
  if (!r.ok) throw new Error(await r.text());
  return r.json();
}

async function loadStats() {
  const s = await getJSON("/api/stats");
  document.getElementById("stats").textContent =
    s.triples + " triples · " + s.classes + " classes · " + s.typedSubjects + " typed subjects";
}

function trail() {
  document.getElementById("trail").textContent =
    "◈ " + panes.map(p => p.title).join(" → ");
}

function barRow(maxCount, b, onClick) {
  const row = document.createElement("div");
  row.className = "bar-row";
  const label = document.createElement("span");
  label.className = "bar-label";
  label.textContent = b.label;
  label.title = b.iri;
  label.onclick = onClick;
  const fill = document.createElement("div");
  fill.className = "bar-fill";
  fill.style.width = Math.max(2, 320 * b.count / Math.max(1, maxCount)) + "px";
  const count = document.createElement("span");
  count.className = "bar-count";
  count.textContent = b.count + (b.coverage ? " (" + Math.round(b.coverage * 100) + "%)" : "");
  row.append(label, fill, count);
  return row;
}

async function renderChart(pane, kind) {
  pane.kind = kind;
  const qs = new URLSearchParams({ kind: kind, sparql: "1" });
  if (pane.classIRI) qs.set("class", pane.classIRI);
  if (kind.startsWith("property")) qs.set("threshold", pane.threshold);
  const chart = await getJSON("/api/chart?" + qs);
  const box = pane.el.querySelector(".chart");
  box.innerHTML = "";
  const maxCount = chart.bars.length ? chart.bars[0].count : 0;
  for (const b of chart.bars.slice(0, 30)) {
    box.append(barRow(maxCount, b, () => {
      if (kind === "subclass") openPane(b.iri, b.label);
      else showSPARQL(pane, b);
    }));
  }
  if (chart.bars.length > 30) {
    const more = document.createElement("div");
    more.className = "controls";
    more.textContent = "… and " + (chart.bars.length - 30) + " more bars";
    box.append(more);
  }
}

function showSPARQL(pane, bar) {
  let pre = pane.el.querySelector("pre.sparql");
  if (!pre) {
    pre = document.createElement("pre");
    pre.className = "sparql";
    pane.el.append(pre);
  }
  pre.textContent = "# bar: " + bar.label + "\n" + (bar.sparql || "(no SPARQL)");
}

async function openPane(classIRI, title) {
  const qs = classIRI ? "?class=" + encodeURIComponent(classIRI) : "";
  const info = await getJSON("/api/pane" + qs);
  const el = document.createElement("div");
  el.className = "pane";
  el.innerHTML =
    '<h2></h2><div class="meta"></div>' +
    '<div class="tabs">' +
    '<button data-kind="subclass" class="active">Subclasses</button>' +
    '<button data-kind="property">Property Data</button>' +
    '<button data-kind="property-in">Ingoing</button>' +
    "</div>" +
    '<div class="controls">coverage threshold <input type="number" step="0.05" min="0" max="1" value="0.2"></div>' +
    '<div class="chart"></div>';
  el.querySelector("h2").textContent = info.title;
  el.querySelector(".meta").textContent =
    info.instances + " instances · " + info.directSubclasses + " direct subclasses · " +
    info.indirectSubclasses + " indirect";
  const pane = { el, classIRI, title: info.title, threshold: 0.2, kind: "subclass" };
  el.querySelectorAll(".tabs button").forEach(btn => {
    btn.onclick = () => {
      el.querySelectorAll(".tabs button").forEach(b => b.classList.remove("active"));
      btn.classList.add("active");
      renderChart(pane, btn.dataset.kind);
    };
  });
  el.querySelector(".controls input").onchange = ev => {
    pane.threshold = parseFloat(ev.target.value) || 0;
    if (pane.kind.startsWith("property")) renderChart(pane, pane.kind);
  };
  panes.push(pane);
  document.getElementById("panes").append(el);
  trail();
  await renderChart(pane, "subclass");
  el.scrollIntoView({ behavior: "smooth", block: "start" });
}

const searchBox = document.getElementById("searchBox");
const suggestions = document.getElementById("suggestions");
searchBox.addEventListener("input", async () => {
  const q = searchBox.value.trim();
  if (!q) { suggestions.hidden = true; return; }
  const hits = await getJSON("/api/classes?q=" + encodeURIComponent(q));
  suggestions.innerHTML = "";
  for (const h of hits.slice(0, 12)) {
    const d = document.createElement("div");
    d.textContent = h.label;
    d.onclick = () => { suggestions.hidden = true; searchBox.value = ""; openPane(h.iri, h.label); };
    suggestions.append(d);
  }
  suggestions.hidden = hits.length === 0;
});

loadStats();
openPane("", "Thing");
</script>
</body>
</html>
`
